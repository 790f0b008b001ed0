"""Mixed equilibrium solution: prescribed feedback part plus frozen open-loop part.

The mixed notion fixes a wealth-proportional strategy part ahead of time (any
finite per-stage gain vector, often sampled at random) and solves for the
frozen part so that the pair is deviation-proof: after a one-stage spike, the
strategy part re-applies to the deviated state while the frozen part keeps its
original random realizations. Along the undeviated path the pair collapses to
the applied affine policy u_k = K_k x + c_k returned here.
"""

from __future__ import annotations

from collections.abc import Sequence

from .market import ExcessMoments, MarketSpec
from .policy import NonexistenceReport, PolicyKind, PureFeedbackPart
from .recursion import EquilibriumSolution, backward_recursion


def solve_mixed_batch(
    spec: MarketSpec,
    parts: Sequence[PureFeedbackPart],
    moments: ExcessMoments | None = None,
) -> list[EquilibriumSolution | NonexistenceReport]:
    """The mixed solution for each strategy part, in order, from one stacked recursion.

    Each stage checks that the gain and offset targets lie in the gain
    matrix's column space; the gain matrix need not be PSD. All parts share
    each stage's one stacked eigendecomposition and solve, and a part that
    fails a stage gets its own report there.
    """
    return backward_recursion(spec, moments, PolicyKind.MIXED, parts)


def solve_mixed(
    spec: MarketSpec,
    feedback_part: PureFeedbackPart,
    moments: ExcessMoments | None = None,
) -> EquilibriumSolution | NonexistenceReport:
    """The mixed solution for one strategy part: solve_mixed_batch with a single part."""
    return solve_mixed_batch(spec, [feedback_part], moments)[0]
