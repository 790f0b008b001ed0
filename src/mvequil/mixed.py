"""Mixed equilibrium solution: prescribed feedback part plus frozen open-loop part.

The mixed notion fixes a wealth-proportional strategy part ahead of time (any
finite per-stage gain vector, often sampled at random) and solves for the
frozen part so that the pair is deviation-proof: after a one-stage spike, the
strategy part re-applies to the deviated state while the frozen part keeps its
original random realizations. Along the undeviated path the pair collapses to
the applied affine policy u_k = K_k x + c_k returned here.
"""

from __future__ import annotations

from .linalg import DEFAULT_RANGE_RTOL
from .market import ExcessMoments, MarketSpec
from .policy import NonexistenceReport, PolicyKind, PureFeedbackPart
from .recursion import EquilibriumSolution, backward_recursion

MixedSolution = EquilibriumSolution


def solve_mixed(
    spec: MarketSpec,
    feedback_part: PureFeedbackPart,
    moments: ExcessMoments | None = None,
    range_tol: float = DEFAULT_RANGE_RTOL,
) -> MixedSolution | NonexistenceReport:
    """The shared backward recursion with the strategy part re-applied after a deviation.

    Each stage checks that the gain and offset targets lie in the gain
    matrix's column space; the gain matrix need not be PSD.
    """
    shape = (spec.horizon, spec.num_assets)
    if feedback_part.gains.shape != shape:
        raise ValueError(f"strategy part shape {feedback_part.gains.shape} does not match market {shape}")
    return backward_recursion(spec, moments, PolicyKind.MIXED, feedback_part, range_tol=range_tol)
