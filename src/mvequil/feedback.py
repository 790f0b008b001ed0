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

import csv
import io
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PINV_RTOL,
    DEFAULT_PSD_TOL,
    DEFAULT_RANGE_RTOL,
    is_psd,
    pseudoinverse,
    range_membership,
)
from .market import ExcessMoments, MarketSpec, check_open_loop_existence, derive_excess_moments
from .policy import (
    AffinePolicy,
    FailingCondition,
    InternalInconsistencyError,
    NonexistenceReport,
    PolicyKind,
)


@dataclass(frozen=True)
class FeedbackTrace:
    """Stagewise audit of the backward recursion.

    cov_weight (length N + 1) weights the covariance in the stage gain matrix
    and equals the conditional-second-moment curvature of terminal wealth
    under the strategy; mean_outer_weight weights the mean-excess outer
    product and equals the conditional-variance curvature. The ordering
    cov_weight >= mean_outer_weight >= 0 holds at every stage. mean_coupling
    and mean_offset carry the terminal-mean cost term backward through the
    closed-loop mean multiplier; offset_coupling is the row vector entering
    the mean_offset update. Entries below the initial time are NaN/False.
    """

    cov_weight: np.ndarray
    mean_outer_weight: np.ndarray
    mean_coupling: np.ndarray
    mean_offset: np.ndarray
    offset_coupling: np.ndarray
    gain_matrix: np.ndarray
    gain_target: np.ndarray
    offset_target: np.ndarray
    stage_ok: np.ndarray
    gain_residual: np.ndarray
    offset_residual: np.ndarray


@dataclass(frozen=True)
class FeedbackSolution:
    policy: AffinePolicy
    trace: FeedbackTrace


def solve_feedback(
    spec: MarketSpec,
    moments: ExcessMoments | None = None,
    range_tol: float = DEFAULT_RANGE_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    pinv_rtol: float = DEFAULT_PINV_RTOL,
) -> FeedbackSolution | NonexistenceReport:
    """Backward recursion for the feedback strategy from the last stage to t.

    Stage k solves gain_matrix Phi = -gain_target and gain_matrix v =
    -offset_target with gain_matrix = mean_outer_weight[k+1] * outer(mean) +
    cov_weight[k+1] * Cov(O_k). The scalar weights then update through the
    closed-loop mean multiplier and the strategy's covariance quadratic, in
    the variance-revealing form that keeps both weights nonnegative.
    """
    if moments is None:
        moments = derive_excess_moments(spec)
    N, m, t = spec.horizon, spec.num_assets, spec.initial_time

    cov_weight = np.full(N + 1, np.nan)
    mean_outer_weight = np.full(N + 1, np.nan)
    mean_coupling = np.full(N + 1, np.nan)
    mean_offset = np.full(N + 1, np.nan)
    offset_coupling = np.full((N, m), np.nan)
    gain_matrix = np.full((N, m, m), np.nan)
    gain_target = np.full((N, m), np.nan)
    offset_target = np.full((N, m), np.nan)
    stage_ok = np.zeros(N, dtype=bool)
    gain_residual = np.full(N, np.nan)
    offset_residual = np.full(N, np.nan)
    gains = np.zeros((N - t, m))
    offsets = np.zeros((N - t, m))

    cov_weight[N] = 1.0
    mean_outer_weight[N] = 0.0
    mean_coupling[N] = -spec.mu1 / 2.0
    mean_offset[N] = -spec.mu2 / 2.0

    def _nonexistence(k: int, condition: FailingCondition, residual: float):
        # the theory guarantees solvability whenever every range condition
        # holds, so distinguish genuine nonexistence from a numerics bug
        if check_open_loop_existence(moments, t, range_tol).overall:
            raise InternalInconsistencyError(
                f"stage {k}: {condition.value} failed (residual {residual:.3e}) although "
                "the range condition holds at every stage"
            )
        return NonexistenceReport(failing_stage=k, failing_condition=condition, residual=residual)

    for k in range(N - 1, t - 1, -1):
        s_k = spec.riskless[k]
        mean_ex = moments.mean_excess[k]
        cov_ex = moments.cov_excess[k]

        if abs(cov_weight[k + 1]) <= 1e-14 and not (
            abs(mean_coupling[k + 1]) <= 1e-10 and abs(mean_offset[k + 1]) <= 1e-10
        ):
            # a degenerate continuation must have killed the whole mean chain too
            raise InternalInconsistencyError(
                f"stage {k}: cov_weight[{k + 1}] = {cov_weight[k + 1]:.3e} is degenerate but "
                f"mean_coupling = {mean_coupling[k + 1]:.3e} and "
                f"mean_offset = {mean_offset[k + 1]:.3e} are not zero"
            )

        G = mean_outer_weight[k + 1] * np.outer(mean_ex, mean_ex) + cov_weight[k + 1] * cov_ex
        target_gain = (s_k * mean_outer_weight[k + 1] + mean_coupling[k + 1]) * mean_ex
        target_offset = mean_offset[k + 1] * mean_ex
        gain_matrix[k] = G
        gain_target[k] = target_gain
        offset_target[k] = target_offset

        if not is_psd(G, psd_tol):
            lam_min = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
            return _nonexistence(k, FailingCondition.PSD_CONDITION, max(-lam_min, 0.0))
        ok_gain, res_gain = range_membership(target_gain, G, range_tol)
        gain_residual[k] = res_gain
        if not ok_gain:
            return _nonexistence(k, FailingCondition.GAIN_SOLVABILITY, res_gain)
        ok_off, res_off = range_membership(target_offset, G, range_tol)
        offset_residual[k] = res_off
        if not ok_off:
            return _nonexistence(k, FailingCondition.OFFSET_SOLVABILITY, res_off)
        stage_ok[k] = True

        G_dag = pseudoinverse(G, pinv_rtol).pinv
        dag_gain = G_dag @ target_gain
        dag_offset = G_dag @ target_offset
        gains[k - t] = -dag_gain
        offsets[k - t] = -dag_offset

        closed = s_k - mean_ex @ dag_gain
        quad = dag_gain @ cov_ex @ dag_gain
        cov_weight[k] = cov_weight[k + 1] * (closed**2 + quad)
        mean_outer_weight[k] = mean_outer_weight[k + 1] * closed**2 + cov_weight[k + 1] * quad
        mean_coupling[k] = closed * mean_coupling[k + 1]
        beta = s_k * mean_outer_weight[k + 1] * mean_ex - dag_gain @ G
        offset_coupling[k] = beta
        mean_offset[k] = -(beta @ dag_offset) + closed * mean_offset[k + 1]

    policy = AffinePolicy(kind=PolicyKind.FEEDBACK, start_stage=t, gains=gains, offsets=offsets)
    trace = FeedbackTrace(
        cov_weight=cov_weight,
        mean_outer_weight=mean_outer_weight,
        mean_coupling=mean_coupling,
        mean_offset=mean_offset,
        offset_coupling=offset_coupling,
        gain_matrix=gain_matrix,
        gain_target=gain_target,
        offset_target=offset_target,
        stage_ok=stage_ok,
        gain_residual=gain_residual,
        offset_residual=offset_residual,
    )
    return FeedbackSolution(policy=policy, trace=trace)


def closed_loop_multiplier(
    solution: FeedbackSolution, spec: MarketSpec, k: int, moments: ExcessMoments | None = None
) -> float:
    """Mean multiplier of the closed-loop wealth at stage k, s_k + mean . Phi_k."""
    if moments is None:
        moments = derive_excess_moments(spec)
    return float(spec.riskless[k] + moments.mean_excess[k] @ solution.policy.gain(k))


def feedback_trace_csv(solution: FeedbackSolution, spec: MarketSpec) -> str:
    """CSV with one row per solved stage: weights, couplings, strategy, residuals."""
    m = spec.num_assets
    t = solution.policy.start_stage
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["k", "cov_weight", "mean_outer_weight", "mean_coupling", "mean_offset"]
    header += [f"coupling_{i}" for i in range(m)]
    header += [f"K_{i}" for i in range(m)] + [f"c_{i}" for i in range(m)]
    header += ["gain_residual", "offset_residual"]
    writer.writerow(header)
    tr = solution.trace
    for k in range(t, spec.horizon):
        row = [k, tr.cov_weight[k], tr.mean_outer_weight[k], tr.mean_coupling[k], tr.mean_offset[k]]
        row += list(tr.offset_coupling[k])
        row += list(solution.policy.gain(k)) + list(solution.policy.offset(k))
        row += [tr.gain_residual[k], tr.offset_residual[k]]
        writer.writerow(row)
    return buf.getvalue()
