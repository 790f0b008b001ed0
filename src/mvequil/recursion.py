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
cross term. G is Cov(O_k) plus a rank-one term in the mean, and all three
right-hand sides (the range condition's mean and the two targets) are
multiples of the mean, so one weight-free solve Cov(O_k)^+ mean per stage,
made before the loop (``linalg.covariance_solve``) with the market's one
decomposition of each covariance (``MarketSpec.cov_certificate``), gives the
gains, the offsets and every range residual in closed form, and linalg's
rank rule on the same quantities gives G's rank and the PSD test: no stage
decomposes G. The loop itself carries scalars only, a few per strategy part
and stage; the gains, offsets and checks of all stages are read off after
it. G's eigenvalues are computed only where they are printed, by
``EquilibriumSolution.gain_eigenvalues``, or where a PSD test fails and the
report needs -lambda_min (``linalg.gain_eigenvalues`` both times).

The recursion carries a leading axis of D strategy parts, so many mixed
solutions of one market share each stage's covariance solve; a part that
fails a check leaves the stack with its report. The open-loop and feedback
recursions, and a single mixed solve, are the case D = 1.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .linalg import covariance_solve, gain_eigenvalues
from .market import ExcessMoments, MarketSpec, ValidationError, derive_excess_moments
from .policy import AffinePolicy, InternalInconsistencyError, NonexistenceReport, PolicyKind, PureFeedbackPart
from .policy import FailingCondition as Cond

# A stage's outcomes, one column each, and the run of them each kind checks,
# in order. G need not be PSD for the mixed solution: its deviation Hessian is
# PSD whatever G is.
_CONDITIONS = (Cond.RANGE_CONDITION, Cond.PSD_CONDITION, Cond.GAIN_SOLVABILITY, Cond.OFFSET_SOLVABILITY)
_CHECKS = {PolicyKind.OPEN_LOOP: slice(0, 1), PolicyKind.FEEDBACK: slice(1, 4), PolicyKind.MIXED: slice(2, 4)}
_WEIGHTS = ("cov_weight", "mean_outer_weight", "mean_coupling", "mean_offset", "riskless_growth_sq")


@dataclass(frozen=True)
class RecursionTrace:
    """Stagewise audit of the backward recursion, with the same fields for every kind.

    Weights have length N + 1: cov_weight and mean_outer_weight build the stage
    gain matrix G = mean_outer_weight[k+1] outer(mean) + cov_weight[k+1] Cov(O_k)
    (feedback keeps cov_weight >= mean_outer_weight >= 0, open-loop keeps
    mean_outer_weight = 0), mean_coupling and mean_offset carry the
    terminal-mean term, riskless_growth_sq is the squared product of the
    remaining riskless returns. Per-stage arrays have length N; the residuals
    are the distances from G's range, under linalg's cutoff, of v the mean
    excess return (the open-loop range condition) and the two targets. Stages
    before the initial time are NaN.

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
    stage_ok: np.ndarray
    range_residual: np.ndarray
    gain_residual: np.ndarray
    offset_residual: np.ndarray

    @classmethod
    def empty(cls, draws: int, N: int, m: int) -> RecursionTrace:
        rows = ("offset_coupling", "gain_target", "offset_target")
        return cls(
            **{name: np.full((draws, N + 1), np.nan) for name in _WEIGHTS},
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

    def gain_eigenvalues(self, spec: MarketSpec) -> np.ndarray:
        """Each stage's gain matrix eigenvalues (N, m) on the solved market, ascending,
        NaN before the start stage: one stacked eigvalsh of the stages' gain
        matrices, built from the trace's weights (linalg.gain_eigenvalues)."""
        t, tr, moments = self.policy.start_stage, self.trace, derive_excess_moments(spec)
        w = np.full(tr.gain_target.shape, np.nan)
        w[t:] = gain_eigenvalues(
            moments.cov_excess[t:],
            moments.mean_excess[t:],
            tr.cov_weight[t + 1 :],
            tr.mean_outer_weight[t + 1 :],
        )
        return w

    @property
    def frozen_gains(self) -> np.ndarray:
        if self.feedback_part is None:
            raise TypeError(f"a {self.policy.kind.value} solution has no strategy part to freeze against")
        return self.policy.gains - self.feedback_part.gains[self.policy.start_stage :]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of a (..., m) and b along their last axis.

    A batched matmul gives each draw the same dot product, rounding included,
    as one draw solved on its own; einsum sums in another order.
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _by_stage(a: np.ndarray):
    """Per-draw values (D, n) indexed by stage: a row of D values, or, for one
    draw, a numpy scalar, whose arithmetic costs a fraction of a one-element array's."""
    return a[0] if len(a) == 1 else a.T


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a value out of the float range is rejected
def backward_recursion(
    spec: MarketSpec,
    moments: ExcessMoments | None,
    kind: PolicyKind,
    feedback_parts: Sequence[PureFeedbackPart] | None = None,
) -> list[EquilibriumSolution | NonexistenceReport]:
    """Solve stages N - 1 down to spec.initial_time for the given kind.

    moments is derive_excess_moments(spec), or None to derive it here; the
    covariance decompositions come from spec.cov_certificate, their one cache.
    feedback_parts are the mixed solutions' strategy parts P, one row per
    stage each, kept on the solutions; the mixed kind requires them, the
    others refuse them, and a part not of shape (N, m) raises ValueError.

    Every part is solved in one stage loop. A stage's gain and offset are
    multiples of one vector, y = (Sigma / 2^e)^+ mu or mu's kernel part
    (linalg.CovarianceSolve.solve), so the loop carries per part only
    scalars: the four weights the next stage reads, from the rank rule's
    outcome and dot products made before the loop. After it, the gains,
    offsets, targets and every check are read off arrays over all parts and
    stages, in stage order: a part that fails a stage check gets the report
    of its first failing condition, and what the loop computed for it at
    earlier stages is dropped. Returns one outcome per part, in order; the
    open-loop and feedback kinds are the case of one zero part, with one
    outcome. A feedback failure while every range condition holds, or a
    negative open-loop cov_weight, contradicts the theory and raises
    InternalInconsistencyError. A gain matrix, gain, offset or weight that
    leaves the float range, including an open-loop cov_weight that
    underflows to zero, raises ValidationError naming the stage: the
    market's scale, not the theory, failed there.
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
    D, n, feedback = len(parts), N - t, kind is PolicyKind.FEEDBACK
    cov, mean, riskless = moments.cov_excess[t:], moments.mean_excess[t:], spec.riskless[t:]
    stages = covariance_solve(cov, mean, spec.cov_certificate.from_stage(t))

    # the dot products the loop reads, for b = y or mu's kernel part: b . mu,
    # and b . Sigma b / 2^e for feedback, which re-applies -dag_gain, a
    # multiple of b; P . mu and P Sigma b for a given part P
    y, kernel, q, exponent = stages.y, stages.kernel, stages.q, stages.exponent
    kernel_mu = _row_dot(kernel, mean)
    if feedback:
        cov_basis = cov @ np.stack((y, kernel), axis=-1)
        cov_y, cov_kernel = (np.ldexp(_row_dot(b, cov_basis[..., i]), -exponent) for i, b in enumerate((y, kernel)))
    else:
        part_cov = (parts[:, t:, None, :] @ cov)[..., 0, :]
        part_mu = _by_stage(_row_dot(parts[:, t:], mean))
        cov_y, cov_kernel = (_by_stage(_row_dot(part_cov, b)) for b in (y, kernel))

    tr = RecursionTrace.empty(D, N, m)
    terminal = np.array([1.0, 0.0, -spec.mu1 / 2.0, -spec.mu2 / 2.0])
    tr.cov_weight[:, N], tr.mean_outer_weight[:, N], tr.mean_coupling[:, N], tr.mean_offset[:, N] = terminal
    cw, mow, coupling, offset = terminal if D == 1 else np.repeat(terminal[:, None], D, axis=1)
    rows = []
    for j in range(n - 1, -1, -1):
        s = riskless[j]
        s1 = s * mow + coupling
        den, enters, leaves = stages.rank_rule(j, cw, mow)
        # dag_gain = s1 b / div and dag_offset = offset b / div, with b = y and
        # div = den while G's rank is Sigma's; b = mu's kernel part where it
        # enters G's range, and div = inf, a zero solve, where mu leaves it
        div, b_mu, cov_b = den, q[j], cov_y[j]
        if (enters | leaves).any():
            div = np.where(enters, mow * stages.kernel_norm[j] ** 2, np.where(leaves, np.inf, den))
            b_mu, cov_b = np.where(enters, kernel_mu[j], b_mu), np.where(enters, cov_kernel[j], cov_b)
        # numerators first, so a subnormal div does not overflow 1 / div
        gain_mu, offset_mu = (s1 * b_mu) / div, (offset * b_mu) / div
        if feedback:  # the cross terms are -dag_gain Sigma dag_gain and -dag_gain Sigma dag_offset
            ratio = s1 / np.ldexp(div, -exponent[j])
            p_mu, cross, offset_cross = -gain_mu, -ratio * ((s1 * cov_b) / div), -ratio * ((offset * cov_b) / div)
        else:  # P Sigma dag_gain and P Sigma dag_offset
            p_mu, cross, offset_cross = part_mu[j], (s1 * cov_b) / div, (offset * cov_b) / div
        cp, cm = s + p_mu, s - gain_mu
        mow_cp = mow * cp
        cw, mow, coupling, offset = (
            cw * (cp * cm - cross),
            mow_cp * cm - cw * cross,
            cp * coupling,
            cp * offset - (mow_cp * offset_mu + cw * offset_cross),
        )
        rows.append((cw, mow, coupling, offset, cp))
    *carried, cp = np.array(rows[::-1], dtype=float).reshape(n, 5, D).transpose(1, 2, 0)
    for name, values in zip(_WEIGHTS, carried):
        getattr(tr, name)[:, t:N] = values
    tr.riskless_growth_sq[:, t:] = np.append(np.cumprod(riskless[::-1] ** 2)[::-1], 1.0)

    # every stage's solve, checks and targets, over all draws and stages at once
    cw, mow = tr.cov_weight[:, t + 1 :], tr.mean_outer_weight[:, t + 1 :]
    row_scale = np.stack(
        (np.ones((D, n)), riskless * mow + tr.mean_coupling[:, t + 1 :], tr.mean_offset[:, t + 1 :]), axis=-1
    )
    tr.gain_target[:, t:], tr.offset_target[:, t:] = (row_scale[..., r, None] * mean for r in (1, 2))
    rhs_bad, entries_bad = stages.out_of_range(slice(None), cw, mow, row_scale)
    fine = ~(rhs_bad | entries_bad)  # the others raise where their draw is still in the stack
    X, residual, passed = np.full((D, n, 3, m), np.nan), np.full((D, n, 3), np.nan), np.ones((D, n, 4), dtype=bool)
    X[fine], residual[fine], ok, psd = stages.solve(np.nonzero(fine)[1], cw[fine], mow[fine], row_scale[fine])
    passed[fine] = np.column_stack((ok[:, 0], psd, ok[:, 1:]))
    tr.range_residual[:, t:], tr.gain_residual[:, t:], tr.offset_residual[:, t:] = residual.transpose(2, 0, 1)
    checks = _CHECKS[kind]
    passed = passed[..., checks]
    failed = ~passed.all(axis=-1)
    # a draw leaves the stack at its first failed stage in stage order, its last index
    left_at = np.where(failed.any(axis=1), n - 1 - np.argmax(failed[:, ::-1], axis=1), -1)
    alive = np.arange(n) >= left_at[:, None]
    tr.stage_ok[:, t:] = alive & ~failed

    reports = {}
    check_residual = np.insert(residual, 1, np.nan, axis=-1)[..., checks]  # the columns of passed
    for d in np.flatnonzero(left_at >= 0):
        j = left_at[d]
        first = int(np.argmin(passed[d, j]))  # the first check failed
        condition, value = _CONDITIONS[checks][first], check_residual[d, j, first]
        if condition is Cond.PSD_CONDITION:
            # the residual is -lambda_min, from the one gain matrix this rare path decomposes
            w = gain_eigenvalues(cov[j : j + 1], mean[j : j + 1], cw[d, j : j + 1], mow[d, j : j + 1])
            value = np.maximum(-w[0, 0], 0.0)
        reports[d] = NonexistenceReport(t + j, condition, float(value))

    # the first error in stage order; within a stage, a solve out of the float
    # range, then a failed check, then the open-loop weight it leaves
    errors = []
    out = ~fine & alive
    if out.any():
        j = np.flatnonzero(out.any(axis=0))[-1]
        rhs = (rhs_bad & alive)[:, j].any()
        reason = "gain solve: non-finite right-hand side" if rhs else "gain matrix has non-finite entries"
        errors.append((j, 2, ValidationError(f"stage {t + j}: the recursion leaves the float range ({reason})")))
    if feedback and reports and stages.in_range.all():
        # feedback solvability is guaranteed when every range condition
        # holds, so tell genuine nonexistence from a numerics bug
        report = reports[0]
        error = InternalInconsistencyError(
            f"stage {report.failing_stage}: {report.failing_condition.value} failed (residual "
            f"{report.residual:.3e}) although the range condition holds at every stage"
        )
        errors.append((left_at[0], 1, error))
    if kind is PolicyKind.OPEN_LOOP:
        weight = tr.cov_weight[0, t:N]
        nonpositive = np.flatnonzero(~(weight > 0) & (np.arange(n) > left_at[0]))
        if nonpositive.size:
            j = nonpositive[-1]
            if weight[j] < 0:
                error = InternalInconsistencyError(f"cov_weight nonpositive ({weight[j]}) at stage {t + j}")
            else:
                error = ValidationError(f"stage {t + j}: cov_weight {weight[j]} leaves the float range")
            errors.append((j, 0, error))
    if errors:
        raise max(errors, key=lambda error: error[:2])[2]

    gains, offsets = -X[..., 1, :], -X[..., 2, :]
    P_cov = (gains[..., None, :] @ cov)[..., 0, :] if feedback else part_cov
    tr.offset_coupling[:, t:] = (mow * cp)[..., None] * mean + cw[..., None] * P_cov
    ids = np.flatnonzero(left_at < 0)
    values = [gains[ids], offsets[ids]] + [getattr(tr, name)[ids, t:N, None] for name in _WEIGHTS]
    if not all(np.isfinite(a).all() for a in values):
        finite = np.logical_and.reduce([np.isfinite(a).all(axis=(0, 2)) for a in values])
        j = np.flatnonzero(~finite)[-1]  # the first stage the recursion reaches
        raise ValidationError(f"stage {t + j}: a gain, offset or weight leaves the float range")
    outcomes: list[EquilibriumSolution | NonexistenceReport] = []
    for d in range(D):
        if d in reports:
            outcomes.append(reports[d])
            continue
        policy = AffinePolicy(kind=kind, start_stage=t, gains=gains[d], offsets=offsets[d])
        part = None if feedback_parts is None else feedback_parts[d]
        outcomes.append(EquilibriumSolution(policy=policy, trace=tr.draw(d), feedback_part=part))
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
        after, tail = [("gain_eig", solution.gain_eigenvalues(spec).__getitem__)], tail + ["stage_ok"]
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
