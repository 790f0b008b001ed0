"""One backward recursion for the open-loop, feedback and mixed equilibria.

The three notions are one stage-wise game (Bjork & Murgoci, 2014): after a
one-stage spike deviation, a part P of each later control is re-applied to the
deviated wealth while the rest keeps its undeviated realizations. P is zero
for the open-loop control, the stage's own gain K for the feedback strategy,
and the prescribed strategy part for the mixed solution; the policy kind picks
it. Stage k solves G K = -gain_target and G c = -offset_target with
G = mean_outer_weight[k+1] outer(mean) + cov_weight[k+1] Cov(O_k), then
carries the weights back through the re-applied mean multiplier
cp = s_k + mean . P, the applied one cm = s_k + mean . K and the covariance
cross term. One eigendecomposition of G per stage gives the eigenvalues and
the PSD test, and one least-norm solve through its kept eigenvectors gives the
gains, the offsets and every range residual.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANGE_RTOL, eigenbasis, is_psd_spectrum
from .market import ExcessMoments, MarketSpec, check_open_loop_existence, derive_excess_moments
from .policy import AffinePolicy, InternalInconsistencyError, NonexistenceReport, PolicyKind, PureFeedbackPart
from .policy import FailingCondition as Cond

# Stage conditions each kind checks, in order. G need not be PSD for the mixed
# solution: its deviation Hessian is PSD whatever G is.
_CHECKS = {
    PolicyKind.OPEN_LOOP: (Cond.RANGE_CONDITION,),
    PolicyKind.FEEDBACK: (Cond.PSD_CONDITION, Cond.GAIN_SOLVABILITY, Cond.OFFSET_SOLVABILITY),
    PolicyKind.MIXED: (Cond.GAIN_SOLVABILITY, Cond.OFFSET_SOLVABILITY),
}


@dataclass(frozen=True)
class RecursionTrace:
    """Stagewise audit of the backward recursion, with the same fields for every kind.

    Weights have length N + 1: cov_weight and mean_outer_weight build G
    (feedback keeps cov_weight >= mean_outer_weight >= 0, open-loop keeps
    mean_outer_weight = 0), mean_coupling and mean_offset carry the
    terminal-mean term, riskless_growth_sq is the squared product of the
    remaining riskless returns. Per-stage arrays have length N; the residuals
    are ||v - B B^T v||, B the kept eigenvectors of G, for v the mean excess
    return (the open-loop range condition) and the two targets. Stages before
    the initial time are NaN.
    """

    cov_weight: np.ndarray
    mean_outer_weight: np.ndarray
    mean_coupling: np.ndarray
    mean_offset: np.ndarray
    riskless_growth_sq: np.ndarray
    offset_coupling: np.ndarray
    gain_matrix: np.ndarray
    gain_target: np.ndarray
    offset_target: np.ndarray
    gain_eigenvalues: np.ndarray
    stage_ok: np.ndarray
    range_residual: np.ndarray
    gain_residual: np.ndarray
    offset_residual: np.ndarray

    @classmethod
    def empty(cls, N: int, m: int) -> RecursionTrace:
        weights = ("cov_weight", "mean_outer_weight", "mean_coupling", "mean_offset", "riskless_growth_sq")
        rows = ("offset_coupling", "gain_target", "offset_target", "gain_eigenvalues")
        return cls(
            **{name: np.full(N + 1, np.nan) for name in weights},
            **{name: np.full((N, m), np.nan) for name in rows},
            **{name: np.full(N, np.nan) for name in ("range_residual", "gain_residual", "offset_residual")},
            gain_matrix=np.full((N, m, m), np.nan),
            stage_ok=np.zeros(N, dtype=bool),
        )


@dataclass(frozen=True)
class EquilibriumSolution:
    """A solved policy and the trace of its recursion; policy.kind names the notion.

    Only a mixed solution holds a strategy part; the frozen part realizes
    frozen_gains * X_k + policy.offset(k) and keeps that after a deviation.
    """

    policy: AffinePolicy
    trace: RecursionTrace
    feedback_part: PureFeedbackPart | None = None

    @property
    def frozen_gains(self) -> np.ndarray:
        if self.feedback_part is None:
            raise TypeError(f"a {self.policy.kind.value} solution has no strategy part to freeze against")
        return self.policy.gains - self.feedback_part.gains[self.policy.start_stage :]


def backward_recursion(
    spec: MarketSpec,
    moments: ExcessMoments | None,
    kind: PolicyKind,
    feedback_part: PureFeedbackPart | None = None,
    range_tol: float = DEFAULT_RANGE_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> EquilibriumSolution | NonexistenceReport:
    """Solve stages N - 1 down to spec.initial_time for the given kind.

    feedback_part is the mixed solution's strategy part P, one row per stage,
    kept on the solution; the mixed kind requires it and the others refuse it.
    Returns the solution or the report of the first failing stage. A feedback
    failure while every range condition holds, or a nonpositive open-loop
    cov_weight, contradicts the theory and raises InternalInconsistencyError.
    """
    if (feedback_part is None) is (kind is PolicyKind.MIXED):
        raise ValueError(f"{kind.value} recursion: a strategy part is given exactly when the kind is mixed")
    if moments is None:
        moments = derive_excess_moments(spec)
    N, m, t = spec.horizon, spec.num_assets, spec.initial_time
    tr = RecursionTrace.empty(N, m)
    tr.cov_weight[N], tr.mean_outer_weight[N], tr.riskless_growth_sq[N] = 1.0, 0.0, 1.0
    tr.mean_coupling[N], tr.mean_offset[N] = -spec.mu1 / 2.0, -spec.mu2 / 2.0
    gains, offsets = np.zeros((N - t, m)), np.zeros((N - t, m))

    for k in range(N - 1, t - 1, -1):
        s_k, mean_ex, cov_ex = spec.riskless[k], moments.mean_excess[k], moments.cov_excess[k]
        cw, mow = tr.cov_weight[k + 1], tr.mean_outer_weight[k + 1]
        G = mow * np.outer(mean_ex, mean_ex) + cw * cov_ex
        # rows: the range condition's mean excess return, then the gain and offset targets
        rhs = np.outer((1.0, s_k * mow + tr.mean_coupling[k + 1], tr.mean_offset[k + 1]), mean_ex)
        tr.gain_matrix[k], tr.gain_target[k], tr.offset_target[k] = G, rhs[1], rhs[2]

        eig = eigenbasis(G)
        w = tr.gain_eigenvalues[k] = eig.eigenvalues
        (_, dag_gain, dag_offset), residual, ok = eig.solve(rhs, range_tol)
        tr.range_residual[k], tr.gain_residual[k], tr.offset_residual[k] = residual
        outcome = {
            Cond.PSD_CONDITION: (is_psd_spectrum(w, psd_tol), max(-float(w[0]), 0.0)),
            Cond.RANGE_CONDITION: (ok[0], float(residual[0])),
            Cond.GAIN_SOLVABILITY: (ok[1], float(residual[1])),
            Cond.OFFSET_SOLVABILITY: (ok[2], float(residual[2])),
        }
        for condition in _CHECKS[kind]:
            passed, failed_residual = outcome[condition]
            if passed:
                continue
            # feedback solvability is guaranteed when every range condition
            # holds, so tell genuine nonexistence from a numerics bug
            if kind is PolicyKind.FEEDBACK and check_open_loop_existence(moments, t, range_tol).overall:
                raise InternalInconsistencyError(
                    f"stage {k}: {condition.value} failed (residual {failed_residual:.3e}) although "
                    "the range condition holds at every stage"
                )
            return NonexistenceReport(failing_stage=k, failing_condition=condition, residual=failed_residual)
        tr.stage_ok[k] = True

        gains[k - t], offsets[k - t] = -dag_gain, -dag_offset
        if kind is PolicyKind.FEEDBACK:
            P = gains[k - t]
        else:
            P = feedback_part.gains[k] if kind is PolicyKind.MIXED else np.zeros(m)
        cp = s_k + mean_ex @ P
        cm = s_k - mean_ex @ dag_gain
        cross = P @ cov_ex @ dag_gain
        tr.cov_weight[k] = cw * (cp * cm - cross)
        tr.mean_outer_weight[k] = mow * cp * cm - cw * cross
        tr.mean_coupling[k] = cp * tr.mean_coupling[k + 1]
        tr.offset_coupling[k] = mow * cp * mean_ex + cw * (P @ cov_ex)
        tr.mean_offset[k] = -(tr.offset_coupling[k] @ dag_offset) + cp * tr.mean_offset[k + 1]
        tr.riskless_growth_sq[k] = s_k**2 * tr.riskless_growth_sq[k + 1]
        if kind is PolicyKind.OPEN_LOOP and not tr.cov_weight[k] > 0:
            raise InternalInconsistencyError(f"cov_weight nonpositive ({tr.cov_weight[k]}) at stage {k}")

    policy = AffinePolicy(kind=kind, start_stage=t, gains=gains, offsets=offsets)
    return EquilibriumSolution(policy=policy, trace=tr, feedback_part=feedback_part)


def trace_csv(solution, spec: MarketSpec) -> str:
    """CSV with one row per solved stage: the weights, the gains K_i and the
    offsets c_i, plus the kind's own columns (open-loop: riskless_growth_sq and
    range_residual; feedback: coupling_i and the residuals; mixed: strategy_i,
    gain_eig_i, the residuals and stage_ok)."""
    policy, tr, kind = solution.policy, solution.trace, solution.policy.kind
    second = "riskless_growth_sq" if kind is PolicyKind.OPEN_LOOP else "mean_outer_weight"
    scalars = ["cov_weight", second, "mean_coupling", "mean_offset"]
    before, after, tail = [], [], ["gain_residual", "offset_residual"]
    if kind is PolicyKind.OPEN_LOOP:
        tail = ["range_residual"]
    elif kind is PolicyKind.FEEDBACK:
        before = [("coupling", tr.offset_coupling.__getitem__)]
    else:
        before = [("strategy", solution.feedback_part.gains.__getitem__)]
        after, tail = [("gain_eig", tr.gain_eigenvalues.__getitem__)], tail + ["stage_ok"]
    vectors = before + [("K", policy.gain), ("c", policy.offset)] + after

    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["k"] + scalars + [f"{name}_{i}" for name, _ in vectors for i in range(spec.num_assets)]
    writer.writerow(header + tail)
    for k in range(policy.start_stage, spec.horizon):
        row = [k] + [getattr(tr, name)[k] for name in scalars]
        row += [value for _, row_at in vectors for value in row_at(k)]
        writer.writerow(row + [getattr(tr, name)[k] for name in tail])
    return buf.getvalue()
