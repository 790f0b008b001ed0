"""Mixed equilibrium solution: prescribed feedback part plus frozen open-loop part.

The mixed notion fixes a wealth-proportional strategy part ahead of time (any
finite per-stage gain vector, often sampled at random) and solves for the
frozen part so that the pair is deviation-proof: after a one-stage spike, the
strategy part re-applies to the deviated state while the frozen part keeps its
original random realizations. Along the undeviated path the pair collapses to
the applied affine policy u_k = K_k x + c_k returned here.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_PINV_RTOL, DEFAULT_PSD_TOL, DEFAULT_RANGE_RTOL, is_psd, pseudoinverse, range_membership
from .market import ExcessMoments, MarketSpec, derive_excess_moments
from .policy import AffinePolicy, FailingCondition, NonexistenceReport, PolicyKind


@dataclass(frozen=True)
class PureFeedbackPart:
    """The prescribed wealth-proportional strategy part, one gain row per stage."""

    gains: np.ndarray
    provenance: str = "user_supplied"
    seed: int | None = None

    def __post_init__(self):
        gains = np.atleast_2d(np.array(self.gains, dtype=float))  # private copy
        if not np.all(np.isfinite(gains)):
            raise ValueError("strategy gains must be finite")
        gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)

    @property
    def horizon(self) -> int:
        return self.gains.shape[0]

    @property
    def num_assets(self) -> int:
        return self.gains.shape[1]


def sample_pure_feedback(seed: int, horizon: int, num_assets: int) -> PureFeedbackPart:
    """Standard-normal strategy part from a seeded generator; reproducible."""
    rng = np.random.default_rng(seed)
    return PureFeedbackPart(
        gains=rng.standard_normal((horizon, num_assets)), provenance="sampled", seed=seed
    )


def zero_pure_feedback(horizon: int, num_assets: int) -> PureFeedbackPart:
    return PureFeedbackPart(gains=np.zeros((horizon, num_assets)), provenance="zero")


def load_pure_feedback(source, horizon: int, num_assets: int) -> PureFeedbackPart:
    """Read a strategy part from JSON: an array of horizon rows of num_assets."""
    if hasattr(source, "read"):
        raw = json.load(source)
    elif isinstance(source, (list, tuple, np.ndarray)):
        raw = source
    else:
        text = str(source)
        if text.lstrip().startswith("["):
            raw = json.loads(text)
        else:
            with open(text) as fh:
                raw = json.load(fh)
    gains = np.asarray(raw, dtype=float)
    if gains.shape != (horizon, num_assets):
        raise ValueError(
            f"strategy part must have shape ({horizon}, {num_assets}), got {gains.shape}"
        )
    return PureFeedbackPart(gains=gains, provenance="user_supplied")


@dataclass(frozen=True)
class MixedTrace:
    """Stagewise audit of the backward recursion.

    cov_weight and mean_outer_weight build the stage gain matrix exactly as in
    the feedback recursion; second_moment_scale and variance_scale are the
    strategy part's own curvature sequences (both nonnegative for any strategy
    part); second_moment_shift and variance_shift are the cross-term
    corrections recovered by subtraction. psd_ok records PSD of the
    strategy-level matrix variance_scale[k+1] * outer(mean) +
    second_moment_scale[k+1] * Cov; gain_eigenvalues are the sorted
    eigenvalues of the stage gain matrix, the solvability certificate that is
    reported with every solve.
    """

    cov_weight: np.ndarray
    mean_outer_weight: np.ndarray
    second_moment_scale: np.ndarray
    variance_scale: np.ndarray
    second_moment_shift: np.ndarray
    variance_shift: np.ndarray
    mean_coupling: np.ndarray
    mean_offset: np.ndarray
    offset_coupling: np.ndarray
    gain_matrix: np.ndarray
    gain_target: np.ndarray
    offset_target: np.ndarray
    gain_eigenvalues: np.ndarray
    psd_ok: np.ndarray
    stage_ok: np.ndarray
    gain_residual: np.ndarray
    offset_residual: np.ndarray


@dataclass(frozen=True)
class MixedSolution:
    """Applied policy plus the decomposition into strategy and frozen parts.

    policy gives u_k = K_k x + c_k along the undeviated path. The pair itself
    is (feedback_part.gains[k], frozen part), where the frozen part realizes
    frozen_gains[k] * X_k + policy.offset(k) along the undeviated path and
    keeps those realizations when a deviation occurs.
    """

    feedback_part: PureFeedbackPart
    policy: AffinePolicy
    frozen_gains: np.ndarray
    trace: MixedTrace


def solve_mixed(
    spec: MarketSpec,
    feedback_part: PureFeedbackPart,
    moments: ExcessMoments | None = None,
    range_tol: float = DEFAULT_RANGE_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    pinv_rtol: float = DEFAULT_PINV_RTOL,
    cross_check: bool = False,
) -> MixedSolution | NonexistenceReport:
    """Backward recursion for the mixed solution given the strategy part.

    Stage k solves gain_matrix K = -gain_target and gain_matrix c =
    -offset_target, then updates the combined weights through the product of
    the strategy-part mean multiplier (s_k + mean . P_k) and the applied mean
    multiplier (s_k + mean . K_k), minus the strategy/applied covariance
    cross term. With cross_check=True the shift sequences are recomputed from
    their direct standalone recursions and compared to the subtraction route.
    """
    if moments is None:
        moments = derive_excess_moments(spec)
    N, m, t = spec.horizon, spec.num_assets, spec.initial_time
    if feedback_part.horizon != N or feedback_part.num_assets != m:
        raise ValueError(
            f"strategy part shape {feedback_part.gains.shape} does not match market ({N}, {m})"
        )

    cov_weight = np.full(N + 1, np.nan)
    mean_outer_weight = np.full(N + 1, np.nan)
    sm_scale = np.full(N + 1, np.nan)
    var_scale = np.full(N + 1, np.nan)
    sm_shift = np.full(N + 1, np.nan)
    var_shift = np.full(N + 1, np.nan)
    mean_coupling = np.full(N + 1, np.nan)
    mean_offset = np.full(N + 1, np.nan)
    offset_coupling = np.full((N, m), np.nan)
    gain_matrix = np.full((N, m, m), np.nan)
    gain_target = np.full((N, m), np.nan)
    offset_target = np.full((N, m), np.nan)
    gain_eigs = np.full((N, m), np.nan)
    psd_ok = np.zeros(N, dtype=bool)
    stage_ok = np.zeros(N, dtype=bool)
    gain_residual = np.full(N, np.nan)
    offset_residual = np.full(N, np.nan)
    gains = np.zeros((N - t, m))
    offsets = np.zeros((N - t, m))
    frozen_gains = np.zeros((N - t, m))

    cov_weight[N] = 1.0
    mean_outer_weight[N] = 0.0
    sm_scale[N] = 1.0
    var_scale[N] = 0.0
    sm_shift[N] = 0.0
    var_shift[N] = 0.0
    mean_coupling[N] = -spec.mu1 / 2.0
    mean_offset[N] = -spec.mu2 / 2.0

    for k in range(N - 1, t - 1, -1):
        s_k = spec.riskless[k]
        mean_ex = moments.mean_excess[k]
        cov_ex = moments.cov_excess[k]
        P = feedback_part.gains[k]

        target_gain = (s_k * mean_outer_weight[k + 1] + mean_coupling[k + 1]) * mean_ex
        target_offset = mean_offset[k + 1] * mean_ex
        G = mean_outer_weight[k + 1] * np.outer(mean_ex, mean_ex) + cov_weight[k + 1] * cov_ex
        gain_target[k] = target_gain
        offset_target[k] = target_offset
        gain_matrix[k] = G
        gain_eigs[k] = np.linalg.eigvalsh(0.5 * (G + G.T))
        psd_ok[k] = is_psd(
            var_scale[k + 1] * np.outer(mean_ex, mean_ex) + sm_scale[k + 1] * cov_ex, psd_tol
        )

        ok_gain, res_gain = range_membership(target_gain, G, range_tol)
        gain_residual[k] = res_gain
        if not ok_gain:
            return NonexistenceReport(
                failing_stage=k,
                failing_condition=FailingCondition.GAIN_SOLVABILITY,
                residual=res_gain,
            )
        ok_off, res_off = range_membership(target_offset, G, range_tol)
        offset_residual[k] = res_off
        if not ok_off:
            return NonexistenceReport(
                failing_stage=k,
                failing_condition=FailingCondition.OFFSET_SOLVABILITY,
                residual=res_off,
            )
        stage_ok[k] = True

        G_dag = pseudoinverse(G, pinv_rtol).pinv
        dag_gain = G_dag @ target_gain
        dag_offset = G_dag @ target_offset
        K_k = -dag_gain
        gains[k - t] = K_k
        offsets[k - t] = -dag_offset
        frozen_gains[k - t] = K_k - P

        cp = s_k + mean_ex @ P
        cm = s_k - mean_ex @ dag_gain
        quad_strategy = P @ cov_ex @ P
        cross = P @ cov_ex @ dag_gain

        sm_scale[k] = sm_scale[k + 1] * (cp**2 + quad_strategy)
        var_scale[k] = var_scale[k + 1] * cp**2 + sm_scale[k + 1] * quad_strategy
        cov_weight[k] = cov_weight[k + 1] * (cp * cm - cross)
        mean_outer_weight[k] = mean_outer_weight[k + 1] * cp * cm - cov_weight[k + 1] * cross
        mean_coupling[k] = cp * mean_coupling[k + 1]
        beta = mean_outer_weight[k + 1] * cp * mean_ex + cov_weight[k + 1] * (P @ cov_ex)
        offset_coupling[k] = beta
        mean_offset[k] = -(beta @ dag_offset) + cp * mean_offset[k + 1]
        sm_shift[k] = cov_weight[k] - sm_scale[k]
        var_shift[k] = mean_outer_weight[k] - var_scale[k]

        if cross_check:
            # standalone recursions for the shift sequences, kept out of the
            # main path because the combined weights are all the gain needs
            gap = K_k - P
            direct_sm_shift = sm_scale[k + 1] * ((cp * mean_ex + cov_ex @ P) @ gap) + sm_shift[
                k + 1
            ] * (cp * cm - cross)
            direct_var_shift = (
                (var_scale[k + 1] * cp * mean_ex + sm_scale[k + 1] * (cov_ex @ P)) @ gap
                + var_shift[k + 1] * cp * cm
                - sm_shift[k + 1] * cross
            )
            tol = 1e-9 * max(1.0, abs(sm_shift[k]), abs(var_shift[k]))
            if abs(direct_sm_shift - sm_shift[k]) > tol or abs(direct_var_shift - var_shift[k]) > tol:
                raise AssertionError(
                    f"stage {k}: direct shift recursions disagree with subtraction "
                    f"({direct_sm_shift:.3e} vs {sm_shift[k]:.3e}, "
                    f"{direct_var_shift:.3e} vs {var_shift[k]:.3e})"
                )

    policy = AffinePolicy(kind=PolicyKind.MIXED_APPLIED, start_stage=t, gains=gains, offsets=offsets)
    trace = MixedTrace(
        cov_weight=cov_weight,
        mean_outer_weight=mean_outer_weight,
        second_moment_scale=sm_scale,
        variance_scale=var_scale,
        second_moment_shift=sm_shift,
        variance_shift=var_shift,
        mean_coupling=mean_coupling,
        mean_offset=mean_offset,
        offset_coupling=offset_coupling,
        gain_matrix=gain_matrix,
        gain_target=gain_target,
        offset_target=offset_target,
        gain_eigenvalues=gain_eigs,
        psd_ok=psd_ok,
        stage_ok=stage_ok,
        gain_residual=gain_residual,
        offset_residual=offset_residual,
    )
    return MixedSolution(
        feedback_part=feedback_part, policy=policy, frozen_gains=frozen_gains, trace=trace
    )


def mixed_equilibrium_wealth_mean(solution: MixedSolution, spec: MarketSpec) -> np.ndarray:
    """Mean wealth along the undeviated path, initial_time to horizon inclusive."""
    moments = derive_excess_moments(spec)
    t, N = solution.policy.start_stage, spec.horizon
    path = np.empty(N - t + 1)
    path[0] = spec.initial_wealth
    for k in range(t, N):
        mean_ex = moments.mean_excess[k]
        a = spec.riskless[k] + mean_ex @ solution.policy.gain(k)
        b = mean_ex @ solution.policy.offset(k)
        path[k - t + 1] = a * path[k - t] + b
    return path


def mixed_trace_csv(solution: MixedSolution, spec: MarketSpec) -> str:
    """CSV with one row per solved stage: weights, policy, eigenvalues, residuals."""
    m = spec.num_assets
    t = solution.policy.start_stage
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["k", "cov_weight", "mean_outer_weight", "second_moment_scale", "variance_scale"]
    header += ["mean_coupling", "mean_offset"]
    header += [f"strategy_{i}" for i in range(m)]
    header += [f"K_{i}" for i in range(m)] + [f"c_{i}" for i in range(m)]
    header += [f"gain_eig_{i}" for i in range(m)]
    header += ["gain_residual", "offset_residual", "stage_ok"]
    writer.writerow(header)
    tr = solution.trace
    for k in range(t, spec.horizon):
        row = [k, tr.cov_weight[k], tr.mean_outer_weight[k], tr.second_moment_scale[k], tr.variance_scale[k]]
        row += [tr.mean_coupling[k], tr.mean_offset[k]]
        row += list(solution.feedback_part.gains[k])
        row += list(solution.policy.gain(k)) + list(solution.policy.offset(k))
        row += list(tr.gain_eigenvalues[k])
        row += [tr.gain_residual[k], tr.offset_residual[k], tr.stage_ok[k]]
        writer.writerow(row)
    return buf.getvalue()
