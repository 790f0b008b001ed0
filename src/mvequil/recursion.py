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

The recursion carries a leading axis of D strategy parts, so many mixed
solutions of one market cost one stacked eigendecomposition and one stacked
solve per stage, not D of each; a part that fails a check leaves the stack
with its report. The open-loop and feedback recursions, and a single mixed
solve, are the case D = 1.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .linalg import eigenbasis, is_psd_spectrum
from .market import ExcessMoments, MarketSpec, check_open_loop_existence, derive_excess_moments
from .policy import AffinePolicy, InternalInconsistencyError, NonexistenceReport, PolicyKind, PureFeedbackPart
from .policy import FailingCondition as Cond

# A stage's outcomes, one column each, and the run of them each kind checks,
# in order. G need not be PSD for the mixed solution: its deviation Hessian is
# PSD whatever G is.
_CONDITIONS = (Cond.RANGE_CONDITION, Cond.PSD_CONDITION, Cond.GAIN_SOLVABILITY, Cond.OFFSET_SOLVABILITY)
_CHECKS = {PolicyKind.OPEN_LOOP: slice(0, 1), PolicyKind.FEEDBACK: slice(1, 4), PolicyKind.MIXED: slice(2, 4)}


@dataclass(frozen=True)
class RecursionTrace:
    """Stagewise audit of the backward recursion, with the same fields for every kind.

    Weights have length N + 1: cov_weight and mean_outer_weight build the stage
    gain matrix G = mean_outer_weight[k+1] outer(mean) + cov_weight[k+1] Cov(O_k)
    (feedback keeps cov_weight >= mean_outer_weight >= 0, open-loop keeps
    mean_outer_weight = 0), mean_coupling and mean_offset carry the
    terminal-mean term, riskless_growth_sq is the squared product of the
    remaining riskless returns. Per-stage arrays have length N; the residuals
    are ||v - B B^T v||, B the kept eigenvectors of G, for v the mean excess
    return (the open-loop range condition) and the two targets. Stages before
    the initial time are NaN.

    While the recursion runs, one trace holds all its strategy draws along a
    leading axis, and draw(d) is the trace of draw d.
    """

    cov_weight: np.ndarray
    mean_outer_weight: np.ndarray
    mean_coupling: np.ndarray
    mean_offset: np.ndarray
    riskless_growth_sq: np.ndarray
    offset_coupling: np.ndarray
    gain_target: np.ndarray
    offset_target: np.ndarray
    gain_eigenvalues: np.ndarray
    stage_ok: np.ndarray
    range_residual: np.ndarray
    gain_residual: np.ndarray
    offset_residual: np.ndarray

    @classmethod
    def empty(cls, draws: int, N: int, m: int) -> RecursionTrace:
        weights = ("cov_weight", "mean_outer_weight", "mean_coupling", "mean_offset", "riskless_growth_sq")
        rows = ("offset_coupling", "gain_target", "offset_target", "gain_eigenvalues")
        return cls(
            **{name: np.full((draws, N + 1), np.nan) for name in weights},
            **{name: np.full((draws, N, m), np.nan) for name in rows},
            **{name: np.full((draws, N), np.nan) for name in ("range_residual", "gain_residual", "offset_residual")},
            stage_ok=np.zeros((draws, N), dtype=bool),
        )

    def draw(self, d: int) -> RecursionTrace:
        return RecursionTrace(**{f.name: getattr(self, f.name)[d] for f in fields(self)})


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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a (D, m) with b's matching row, or with b (m,).

    A batched matmul gives each draw the same dot product, rounding included,
    as one draw solved on its own; einsum sums in another order.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def backward_recursion(
    spec: MarketSpec,
    moments: ExcessMoments | None,
    kind: PolicyKind,
    feedback_parts: Sequence[PureFeedbackPart] | None = None,
) -> list[EquilibriumSolution | NonexistenceReport]:
    """Solve stages N - 1 down to spec.initial_time for the given kind.

    feedback_parts are the mixed solutions' strategy parts P, one row per
    stage each, kept on the solutions; the mixed kind requires them, the
    others refuse them, and a part not of shape (N, m) raises ValueError.
    Every part is solved in the same stage loop: each stage decomposes the
    gain matrices of the parts still alive with one stacked
    eigendecomposition and solves them with one stacked solve. A part that
    fails a stage check gets the report of its first failing condition and
    leaves the stack. Returns one outcome per part, in order; the
    open-loop and feedback kinds are the case of one zero part, with one
    outcome. A feedback failure while every range condition holds, or a
    nonpositive open-loop cov_weight, contradicts the theory and raises
    InternalInconsistencyError.
    """
    if (feedback_parts is None) is (kind is PolicyKind.MIXED):
        raise ValueError(f"{kind.value} recursion: a strategy part is given exactly when the kind is mixed")
    if moments is None:
        moments = derive_excess_moments(spec)
    N, m, t = spec.horizon, spec.num_assets, spec.initial_time
    if feedback_parts is None:
        parts = np.zeros((1, N, m))
    else:
        for part in feedback_parts:
            if part.gains.shape != (N, m):
                raise ValueError(f"strategy part shape {part.gains.shape} does not match market {(N, m)}")
        parts = np.array([p.gains for p in feedback_parts]).reshape(-1, N, m)
    D = len(parts)
    tr = RecursionTrace.empty(D, N, m)
    tr.cov_weight[:, N], tr.mean_outer_weight[:, N], tr.riskless_growth_sq[:, N] = 1.0, 0.0, 1.0
    tr.mean_coupling[:, N], tr.mean_offset[:, N] = -spec.mu1 / 2.0, -spec.mu2 / 2.0
    gains, offsets = np.zeros((D, N - t, m)), np.zeros((D, N - t, m))
    outcomes: list[EquilibriumSolution | NonexistenceReport | None] = [None] * D
    checks = _CHECKS[kind]
    ids = np.arange(D)  # the draws still in the stack
    live = slice(None)  # indexes them: a slice, so a view, until a draw leaves

    for k in range(N - 1, t - 1, -1):
        s_k, mean_ex, cov_ex = spec.riskless[k], moments.mean_excess[k], moments.cov_excess[k]
        cw, mow = tr.cov_weight[live, k + 1], tr.mean_outer_weight[live, k + 1]
        coupling_next, offset_next = tr.mean_coupling[live, k + 1], tr.mean_offset[live, k + 1]
        G = mow[:, None, None] * np.outer(mean_ex, mean_ex) + cw[:, None, None] * cov_ex
        # rows: the range condition's mean excess return, then the gain and offset targets
        row_scale = np.ones((ids.size, 3))
        row_scale[:, 1] = s_k * mow + coupling_next
        row_scale[:, 2] = offset_next
        rhs = row_scale[:, :, None] * mean_ex
        tr.gain_target[live, k], tr.offset_target[live, k] = rhs[:, 1], rhs[:, 2]

        eig = eigenbasis(G)
        w = tr.gain_eigenvalues[live, k] = eig.eigenvalues
        X, residual, ok = eig.solve(rhs)
        tr.range_residual[live, k], tr.gain_residual[live, k], tr.offset_residual[live, k] = residual.T
        passed = np.column_stack((ok[:, 0], is_psd_spectrum(w), ok[:, 1:]))[:, checks]
        if not passed.all():
            failed = ~passed.all(axis=1)
            residual = np.column_stack((residual[:, 0], np.maximum(-w[:, 0], 0.0), residual[:, 1:]))[:, checks]
            for i in np.flatnonzero(failed):
                first = int(np.argmin(passed[i]))  # the first check failed
                report = NonexistenceReport(k, _CONDITIONS[checks][first], float(residual[i, first]))
                # feedback solvability is guaranteed when every range condition
                # holds, so tell genuine nonexistence from a numerics bug
                if kind is PolicyKind.FEEDBACK and check_open_loop_existence(moments, t).overall:
                    raise InternalInconsistencyError(
                        f"stage {k}: {report.failing_condition.value} failed (residual "
                        f"{report.residual:.3e}) although the range condition holds at every stage"
                    )
                outcomes[ids[i]] = report
            ids = live = ids[~failed]
            if not ids.size:
                break
            X, cw, mow, coupling_next, offset_next = (a[~failed] for a in (X, cw, mow, coupling_next, offset_next))
        tr.stage_ok[live, k] = True

        dag_gain, dag_offset = X[:, 1], X[:, 2]
        gains[live, k - t], offsets[live, k - t] = -dag_gain, -dag_offset
        P = -dag_gain if kind is PolicyKind.FEEDBACK else parts[live, k]
        P_cov = (P[:, None, :] @ cov_ex)[:, 0]  # one vector-matrix product per draw
        cp = s_k + _row_dot(P, mean_ex)
        cm = s_k - _row_dot(dag_gain, mean_ex)
        cross = _row_dot(P_cov, dag_gain)
        mow_cp = mow * cp
        cov_weight = tr.cov_weight[live, k] = cw * (cp * cm - cross)
        tr.mean_outer_weight[live, k] = mow_cp * cm - cw * cross
        tr.mean_coupling[live, k] = cp * coupling_next
        coupling = tr.offset_coupling[live, k] = mow_cp[:, None] * mean_ex + cw[:, None] * P_cov
        tr.mean_offset[live, k] = -_row_dot(coupling, dag_offset) + cp * offset_next
        tr.riskless_growth_sq[live, k] = s_k**2 * tr.riskless_growth_sq[live, k + 1]
        if kind is PolicyKind.OPEN_LOOP and not cov_weight.min() > 0:
            raise InternalInconsistencyError(f"cov_weight nonpositive ({cov_weight.min()}) at stage {k}")

    for d in ids:
        policy = AffinePolicy(kind=kind, start_stage=t, gains=gains[d], offsets=offsets[d])
        part = None if feedback_parts is None else feedback_parts[d]
        outcomes[d] = EquilibriumSolution(policy=policy, trace=tr.draw(d), feedback_part=part)
    return outcomes


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
