"""Feedback equilibrium strategy via backward recursion.

The feedback notion re-applies the strategy to the deviated state after a
one-stage spike deviation. The strategy is wealth-affine, u_k = Phi_k x + v_k,
and never depends on the initial wealth. Solvability at a stage requires the
stage gain matrix to be PSD and both stage targets to lie in its column space;
when the open-loop range condition holds at every stage these are guaranteed,
so a failure there is reported as an internal inconsistency instead of
nonexistence.
"""

from __future__ import annotations

from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANGE_RTOL
from .market import ExcessMoments, MarketSpec
from .policy import NonexistenceReport, PolicyKind
from .recursion import EquilibriumSolution, backward_recursion

FeedbackSolution = EquilibriumSolution


def solve_feedback(
    spec: MarketSpec,
    moments: ExcessMoments | None = None,
    range_tol: float = DEFAULT_RANGE_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> FeedbackSolution | NonexistenceReport:
    """The shared backward recursion with each stage's own gain re-applied after a deviation.

    Each stage checks, in order, that the gain matrix is PSD and that the gain
    and offset targets lie in its column space.
    """
    return backward_recursion(spec, moments, PolicyKind.FEEDBACK, range_tol=range_tol, psd_tol=psd_tol)
