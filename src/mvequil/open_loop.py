"""Open-loop equilibrium control via backward recursion.

The open-loop notion freezes all later controls as random variables when a
one-stage spike deviation is contemplated. Existence at every stage is exactly
the range condition: the mean excess return must lie in the column space of
the excess-return covariance. The solver returns a wealth-affine policy
u_k = K_k x + c_k or a NonexistenceReport certifying the failing stage.
"""

from __future__ import annotations

import numpy as np

from .market import ExcessMoments, MarketSpec, derive_excess_moments
from .policy import NonexistenceReport, PolicyKind
from .recursion import EquilibriumSolution, backward_recursion


def solve_open_loop(
    spec: MarketSpec, moments: ExcessMoments | None = None
) -> EquilibriumSolution | NonexistenceReport:
    """The shared backward recursion with nothing re-applied after a deviation.

    The stage gain matrix is cov_weight[k+1] * Cov(O_k), and each stage checks
    the range condition on the mean excess return. moments, if given, must be
    derive_excess_moments(spec) (backward_recursion).
    """
    return backward_recursion(spec, moments, PolicyKind.OPEN_LOOP)[0]


def equilibrium_wealth_coefficients(solution, spec: MarketSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage (a_k, b_k) of the mean wealth path: E X_{k+1} = a_k E X_k + b_k.

    a_k = s_k + mean_excess_k . K_k and b_k = mean_excess_k . c_k, for stages
    initial_time through horizon - 1. a_k is the closed-loop mean multiplier.
    Any solution with a policy works: open-loop, feedback or mixed.
    """
    t = solution.policy.start_stage
    mean_ex = derive_excess_moments(spec).mean_excess[t:]
    a = spec.riskless[t:] + np.einsum("ki,ki->k", mean_ex, solution.policy.gains)
    return a, np.einsum("ki,ki->k", mean_ex, solution.policy.offsets)


def mean_wealth_path(solution, spec: MarketSpec) -> np.ndarray:
    """Deterministic mean wealth from initial_time to the horizon, inclusive, of any solution."""
    a, b = equilibrium_wealth_coefficients(solution, spec)
    path = np.empty(len(a) + 1)
    path[0] = spec.initial_wealth
    for i in range(len(a)):
        path[i + 1] = a[i] * path[i] + b[i]
    return path
