"""Independent ground truth: exact tree costs, deviation tests, Monte Carlo.

Everything here avoids the solvers' recursions on purpose. A market has one
scenario tree: each stage's mean and a covariance factor F, whose rank r gives
the stage 2r + 1 equally weighted atoms. Equilibrium claims are checked by
exactly minimizing the one-stage spike-deviation cost, a quadratic in the
deviation.

That quadratic is formed in closed form once per stage. Returns are
independent between stages and every continuation is affine in the deviated
wealth, so per suffix scenario terminal wealth is beta * (X_dev - X*) + rho *
X* + alpha in the deviated and undeviated wealth one stage later: the spread
X_dev - X* grows by s + o.P per stage, the undeviated wealth by s + o.K, and
alpha is the undeviated path's drift from the offsets. Because each stage's
factor is independent of the later ones, the mean and covariance of (beta,
rho, alpha) go backward exactly, one stage at a time, from the tree's stored
moments, enumerating no suffix scenario; with the stage's own moments they give
each node's own cost J* (from rho and alpha alone, so one number under every
semantics), its gradient and the stage's shared Hessian; verify_equilibrium tests
a stage's nodes at once. Each answer raises ValidationError only where what it
reads overflows: J*, the derivatives in the deviation tests, spike_cost's cost off u*.

The deviation notions differ only in the part P of each later control that is
re-applied to the deviated wealth, u_dev = P X_dev + (u* - P X*): P = 0 (open
loop), the own gain K (feedback) or the given strategy part (mixed).
_continuation derives P from the semantics, never from a solver's trace.

Monte Carlo carries each path as a deterministic mean path m plus its own
deviation D. With mu the stage's mean excess return and o - mu = F z,
m' = (s + mu.K) m + mu.c and D' = (s + o.K) D + (o - mu).(K m + c), so a stage
is one scalar growth and one shock per path, and the spread keeps its digits
however far the mean lies from zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .linalg import eigenbasis, is_psd_spectrum
from .market import ExcessMoments, MarketSpec, ValidationError, derive_excess_moments
from .policy import AffinePolicy, PolicyKind

MAX_LEAF_PATHS = 10**7
# paths per block of simulate_monte_carlo's draws and sums: its temporaries stay under 0.5 MB at rank 3
_PATH_BLOCK = 8192


class EquilibriumStructureError(RuntimeError):
    """The deviation cost was not convex: solver bug or non-equilibrium policy."""


def _standard_points(r: int) -> np.ndarray:
    """The 2r + 1 standard shocks z, (2r + 1, r): zero, then plus and minus sqrt((2r + 1) / 2)
    times each unit vector. Equally weighted, they have mean 0 and identity covariance."""
    scaled = math.sqrt((2 * r + 1) / 2.0) * np.eye(r)
    return np.vstack([np.zeros((1, r)), scaled, -scaled])


@dataclass(frozen=True)
class ScenarioTree:
    """Stagewise-independent excess returns with 2r + 1 equally weighted atoms per stage.

    mean is (N, m) and factors[k] (m, r_k), with F F^T stage k's covariance;
    the atoms are mean[k] + F z over the standard points z, and scenarios are
    products across stages. mean[k] and implied_cov(k) = F F^T are stage k's
    stored moments, so the tree keeps its spread at every scale.
    """

    mean: np.ndarray
    factors: tuple

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)  # private copies to freeze
        factors = tuple(np.array(F, dtype=float) for F in self.factors)
        finite = [np.isfinite(a).all() and np.isfinite(F).all() for a, F in zip(mean, factors)]
        if not all(finite):
            raise ValueError(f"tree stage {finite.index(False)} has a non-finite mean or factor entry")
        for arr in (mean, *factors):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factors", factors)

    def atoms(self, k: int) -> np.ndarray:
        """Stage k's 2r + 1 atoms mean[k] + F z, (2r + 1, m), in the standard points' order."""
        F = self.factors[k]
        return self.mean[k] + _standard_points(F.shape[1]) @ F.T

    def implied_cov(self, k: int) -> np.ndarray:
        return self.factors[k] @ self.factors[k].T

    def leaf_count(self, start: int = 0) -> int:
        return math.prod(2 * F.shape[1] + 1 for F in self.factors[start:])


def build_matched_tree(moments: ExcessMoments) -> ScenarioTree:
    """Symmetric sigma-point tree matching each stage's mean and covariance exactly.

    F has one column sqrt(lambda) q per eigenpair that linalg keeps and whose
    eigenvalue is positive (a kept one can be slightly negative inside the PSD
    slack), from one stacked decomposition of all stages. A zero covariance
    leaves the mean as the only atom. The cutoff is relative to the largest
    eigenvalue, so scaling a covariance keeps r and scales F.
    """
    eig = eigenbasis(moments.cov_excess)
    keep = eig.keep & (eig.eigenvalues > 0)
    factors = [Q[:, kept] * np.sqrt(w[kept]) for w, Q, kept in zip(eig.eigenvalues, eig.vectors, keep)]
    return ScenarioTree(mean=moments.mean_excess, factors=tuple(factors))


def _policy_of(target) -> AffinePolicy:
    applied = target if isinstance(target, AffinePolicy) else getattr(target, "policy", None)
    if not isinstance(applied, AffinePolicy):
        raise TypeError(f"cannot extract an affine policy from {type(target)!r}")
    return applied


def _continuation(target, semantics: PolicyKind | None = None):
    """The applied policy, the semantics and the gain rows P re-applied after a deviation.

    target is an AffinePolicy or a solution holding one; semantics defaults to
    the policy's kind. Row i of P belongs to stage start_stage + i. Only a
    solution carries the strategy part that mixed semantics re-applies.
    """
    applied = _policy_of(target)
    semantics = applied.kind if semantics is None else semantics
    if semantics is PolicyKind.OPEN_LOOP:
        return applied, semantics, np.zeros_like(applied.gains)
    if semantics is PolicyKind.FEEDBACK:
        return applied, semantics, applied.gains
    part = getattr(target, "feedback_part", None)
    if part is None:
        raise TypeError("mixed semantics needs the solution holding the strategy part, not a bare policy")
    return applied, semantics, part.gains[applied.start_stage :]


def _check_tree(tree: ScenarioTree, spec: MarketSpec):
    """ValueError unless the tree has the market's stages and assets."""
    market = (spec.horizon, spec.num_assets)
    if tree.mean.shape != market:
        raise ValueError(f"tree of (stages, assets) {tree.mean.shape} does not match the market's {market}")
    shapes = [F.shape for F in tree.factors]
    if len(shapes) != spec.horizon or any(len(shape) != 2 or shape[0] != spec.num_assets for shape in shapes):
        raise ValueError(
            f"tree factors of shapes {shapes} do not match the market's (stages, assets) {market}: "
            "one (assets, rank) factor per stage"
        )


def _stage_moments(tree: ScenarioTree, spec: MarketSpec, policy, k: int | None, x: float, semantics: PolicyKind | None):
    """The applied policy, stage k (default its first), the moments of (beta, rho, alpha) after it and wealth x (1,).

    ValueError unless x is finite, stage k is one of the policy's and the tree fits the market.
    """
    x = np.array([float(x)])
    if not np.isfinite(x[0]):
        raise ValueError(f"wealth {x[0]} is not finite")
    applied, _, reapplied = _continuation(policy, semantics)
    k = applied.start_stage if k is None else int(k)
    applied.row(k)
    _check_tree(tree, spec)
    mean, cov = _coefficient_moments(tree, spec, applied, reapplied, k)[0]
    return applied, k, mean, cov, x


def evaluate_cost_exact(
    tree: ScenarioTree, spec: MarketSpec, policy, k: int | None = None, x: float | None = None
) -> float:
    """Exact cost E(X_N - E X_N)^2 - (mu1 x + mu2) E X_N of following the policy from (k, x) on the tree.

    This is the own cost J* that verify_equilibrium tests against, from the
    same backward moment pass, so the tree may have any number of leaf paths.
    policy is an AffinePolicy or a solution holding one. A cost that
    overflows a float raises ValidationError naming the wealth.
    """
    # J* reads only rho and alpha, which no semantics changes: feedback's needs no strategy part
    x = spec.initial_wealth if x is None else x
    applied, k, mean, cov, x = _stage_moments(tree, spec, policy, k, x, PolicyKind.FEEDBACK)
    return float(_stage_quadratic(tree, spec, applied, k, mean, cov, x)[1][0])


@np.errstate(over="ignore", invalid="ignore")  # an overflowing cost is rejected, not warned about
def spike_cost(
    tree: ScenarioTree,
    spec: MarketSpec,
    policy,
    k: int,
    x: float,
    u: np.ndarray,
    semantics: PolicyKind | None = None,
) -> float:
    """Exact cost of deviating to u at (k, x), continuation per the semantics.

    The cost is the quadratic J* + g.d + d'Hd / 2 in d = u - u*, with the
    gradient g and Hessian H that best_spike_deviation minimizes, from the same
    backward moment pass, so the tree may have any number of leaf paths. u
    must have the market's shape (m,). A cost that overflows a float raises
    ValidationError naming the wealth.
    """
    applied, k, mean, cov, x = _stage_moments(tree, spec, policy, k, x, semantics)
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.num_assets,):
        raise ValueError(f"deviation of shape {u.shape} does not match the market's {(spec.num_assets,)}")
    u_star, j_star, grad, hess = _stage_quadratic(tree, spec, applied, k, mean, cov, x)
    d = u - u_star[0]
    if not d.any():
        return float(j_star[0])
    cost = j_star + grad[0] @ d + 0.5 * d @ hess @ d
    _reject_overflow(np.isfinite(cost), x, k, "the deviation's cost overflows")
    return float(cost[0])


def best_spike_deviation(
    tree: ScenarioTree,
    spec: MarketSpec,
    policy,
    k: int,
    x: float,
    semantics: PolicyKind | None = None,
) -> tuple[np.ndarray, float]:
    """Globally best one-stage deviation at (k, x) and its exact cost.

    The deviation cost is an exact quadratic in u (terminal wealth is affine in
    u per scenario); its gradient and Hessian come in closed form from the
    moments of the suffix coefficients, carried backward from the last stage
    to k one stage at a time, and it is minimized by a least-norm solve. No
    suffix scenario is enumerated, so the tree may have any number of leaf
    paths. An indefinite quadratic raises EquilibriumStructureError; an
    unbounded one (gradient outside the Hessian's column space) returns cost
    -inf.
    """
    applied, k, mean, cov, x = _stage_moments(tree, spec, policy, k, x, semantics)
    u_dev, j_dev, _ = _best_spikes(tree, spec, applied, k, mean, cov, x)
    return u_dev[0], float(j_dev[0])


@np.errstate(over="ignore", invalid="ignore")  # an overflowing cost is rejected, not warned about
def _coefficient_moments(
    tree: ScenarioTree, spec: MarketSpec, applied: AffinePolicy, reapplied: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean and covariance of (beta, rho, alpha) after each stage from k on, by one backward pass.

    Entry j belongs to stage k + j. After the last stage (beta, rho, alpha) is
    (1, 1, 0) for sure. Stage l maps the coefficients after it to (beta a, rho
    b, rho d + alpha) with (a, b, d) = (s, s, 0) + o.A for A = [P K c], and
    that factor is independent of every later stage, so with G its mean map,
    V = A' Sigma A and S = C + m m' the raw second moments: m <- G m and C <-
    G C G' + V * S[p, p] for p = (0, 1, 1). The pass reads only each stage's
    atom moments and the policy's rows; P is reapplied's row (from
    _continuation).
    """
    mean, cov = np.array([1.0, 1.0, 0.0]), np.zeros((3, 3))
    moments = [(mean, cov)]
    p = [0, 1, 1]
    for stage in range(spec.horizon - 1, k, -1):
        s = spec.riskless[stage]
        A = np.stack([reapplied[applied.row(stage)], applied.gain(stage), applied.offset(stage)], axis=1)
        a, b, d = np.array([s, s, 0.0]) + tree.mean[stage] @ A
        S = cov + np.outer(mean, mean)
        # G by rows, then columns: beta's entries meet no zero of G, so their overflow stays out of rho and alpha
        scale = np.array([a, b, 1.0])
        rows = cov * scale[:, None]
        rows[2] += d * cov[1]
        cov = rows * scale
        cov[:, 2] += d * rows[:, 1]
        cov += (A.T @ tree.implied_cov(stage) @ A) * S[np.ix_(p, p)]
        mean = np.array([a * mean[0], b * mean[1], mean[2] + d * mean[1]])
        moments.append((mean, cov))
    return moments[::-1]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _reject_overflow(finite: np.ndarray, x: np.ndarray, k: int, what: str):
    """ValidationError naming the first node of stage k, of wealths x, whose numbers are not all finite."""
    if not finite.all():
        raise ValidationError(f"wealth {x[~finite][0]:g} at stage {k}: {what}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowing number is rejected where it is read
def _stage_quadratic(tree: ScenarioTree, spec: MarketSpec, applied: AffinePolicy, k: int, mean, cov, x: np.ndarray):
    """u*, the own cost J*, and the deviation cost's gradients g and Hessian H in d at nodes of stage k.

    x holds each node's wealth, where the policy plays u*; mean and cov are the
    moments of (beta, rho, alpha) after stage k. After u* + d, terminal wealth
    is beta o.d + rho X* + alpha for X* = s x + o.u*, so J* = Var(rho X* +
    alpha) - (mu1 x + mu2) E[rho X* + alpha] reads only rho and alpha: Var =
    E[rho^2] u*' Sigma u* + E[w]' C E[w] for w = (X*, 1) and C their block. The
    Hessian 2 (E[beta^2] Sigma + Var(beta) mu mu') is every node's. A J*
    beyond a float raises ValidationError naming the wealth; g and H are left
    to the callers that read them.
    """
    mu, sigma = tree.mean[k], tree.implied_cov(k)
    second = cov + np.outer(mean, mean)
    u = np.outer(x, applied.gain(k)) + applied.offset(k)
    sigma_u = u @ sigma
    w_mean = np.stack([spec.riskless[k] * x + u @ mu, np.ones_like(x)], axis=1)
    w_cov = w_mean @ cov[1:]  # Cov(w.(rho, alpha), (beta, rho, alpha)) at each node
    var = second[1, 1] * _rowdot(sigma_u, u) + _rowdot(w_cov[:, 1:], w_mean)
    mean_weight = spec.mu1 * x + spec.mu2
    j_star = var - mean_weight * (w_mean @ mean[1:])
    _reject_overflow(np.isfinite(j_star), x, k, "the policy's cost overflows")
    grad = 2.0 * second[0, 1] * sigma_u + np.outer(2.0 * w_cov[:, 0] - mean_weight * mean[0], mu)
    hess = 2.0 * (second[0, 0] * sigma + cov[0, 0] * np.outer(mu, mu))
    return u, j_star, grad, hess


@np.errstate(over="ignore", invalid="ignore")  # an overflowing cost is rejected, not warned about
def _best_spikes(tree: ScenarioTree, spec: MarketSpec, applied: AffinePolicy, k: int, mean, cov, x: np.ndarray):
    """Best deviation, its cost and the policy's own cost at nodes of stage k, arguments as for _stage_quadratic.

    The Hessian is shared by every node, so one eigendecomposition gives the
    convexity check, and one least-norm solve through it gives every node's
    step and whether its gradient lies in the Hessian's range. A g or H
    beyond a float raises ValidationError naming the wealth.
    """
    u, j_star, grad, hess = _stage_quadratic(tree, spec, applied, k, mean, cov, x)
    # Var(beta) can be finite while the Hessian's mu mu' term overflows
    finite = np.isfinite(grad).all(axis=1) & np.isfinite(hess).all()
    _reject_overflow(finite, x, k, "the deviation cost's derivatives overflow")
    # a Hessian whose largest entry passes 1 is decomposed, with the gradients,
    # in units of that entry's power of two 2^e: the step is the same, the
    # spectrum stays in the float range, and the range test's floor of 1
    # becomes 2^e, so a gradient tiny against the Hessian is not unbounded
    e = max(int(np.frexp(np.abs(hess).max())[1]), 0)
    eig = eigenbasis(np.ldexp(hess, -e))
    eigs = eig.eigenvalues
    if not is_psd_spectrum(eigs, 1e-8):
        raise EquilibriumStructureError(
            f"deviation cost at stage {k} is not convex (min curvature {np.ldexp(eigs[0], e):.3e})"
        )
    step, _, bounded = eig.solve(np.ldexp(-grad, -e))
    j_dev = j_star + _rowdot(grad, step) + 0.5 * _rowdot(step @ hess, step)
    return u + step, np.where(bounded, j_dev, -np.inf), j_star


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the spike-deviation test, one array entry per tested node.

    Nodes run stage by stage; within a stage the children of node n occupy
    block n. stage, node, j_star, j_dev, gap, tol and passed have shape (n,),
    deviation (n, m): the best deviation at each node, of cost j_dev.
    """

    semantics: PolicyKind
    stage: np.ndarray
    node: np.ndarray
    j_star: np.ndarray
    j_dev: np.ndarray
    gap: np.ndarray
    tol: np.ndarray
    passed: np.ndarray
    deviation: np.ndarray

    def __len__(self) -> int:
        return self.stage.shape[0]


def verify_equilibrium(
    tree: ScenarioTree,
    spec: MarketSpec,
    policy,
    semantics: PolicyKind | None = None,
) -> VerificationResult:
    """Spike-deviation test at every reachable node of every stage.

    Nodes are the undeviated wealth values reached from (initial_time,
    initial_wealth) along tree scenarios; one backward pass gives every stage's
    suffix moments, and all nodes of a stage are tested at once from them.
    The node walk keeps the tree's leaf cap. gap = J_dev - J* clears -tol, with
    tol = 1e-7 * max(1, |J*|), at a node that passes. A policy cost that
    overflows a float at some node raises ValidationError naming its wealth.
    """
    applied, semantics, reapplied = _continuation(policy, semantics)
    t = applied.start_stage
    _check_tree(tree, spec)
    leaves = tree.leaf_count(t)
    if leaves > MAX_LEAF_PATHS:
        raise ValidationError(
            f"tree has 10^{math.log10(leaves):.1f} leaf paths from stage {t}, above the exact-evaluation "
            f"cap of 10^{math.log10(MAX_LEAF_PATHS):g}; use Monte Carlo instead"
        )
    per_stage = []  # (j_star, j_dev, u_dev) of each stage's nodes
    states = np.array([spec.initial_wealth])
    moments = _coefficient_moments(tree, spec, applied, reapplied, t)
    for k, (mean, cov) in enumerate(moments, start=t):
        u_dev, j_dev, j_star = _best_spikes(tree, spec, applied, k, mean, cov, states)
        per_stage.append((j_star, j_dev, u_dev))
        controls = np.outer(states, applied.gain(k)) + applied.offset(k)
        growth = spec.riskless[k] * states[None, :] + tree.atoms(k) @ controls.T
        states = growth.T.reshape(-1)  # children of node n occupy block n
    counts = [len(j_star) for j_star, _, _ in per_stage]
    j_star, j_dev, deviation = (np.concatenate(column) for column in zip(*per_stage))
    gap = j_dev - j_star
    tol = 1e-7 * np.maximum(1.0, np.abs(j_star))
    return VerificationResult(
        semantics=semantics,
        stage=np.repeat(np.arange(t, spec.horizon), counts),
        node=np.concatenate([np.arange(n) for n in counts]),
        j_star=j_star,
        j_dev=j_dev,
        gap=gap,
        tol=tol,
        passed=gap >= -tol,
        deviation=deviation,
    )


def verification_summary(result: VerificationResult) -> dict:
    return {
        "count": len(result),
        "min_gap": float(result.gap.min()),
        "passed": bool(result.passed.all()),
    }


_JSONL_KEYS = ("stage", "node", "j_star", "j_dev", "gap", "passed", "semantics", "deviation", "tol")
# a node's line: the keys in order, each value the JSON text of its column's element
_JSONL_LINE = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in _JSONL_KEYS) + "}"


def _json_elements(values: list, nested: bool = False) -> list[str]:
    """The JSON text of each element of a list, from one json.dumps of the
    whole list; nested, its elements are lists of numbers, split at "], [". """
    if not values:
        return []
    if nested:
        return ["[" + row + "]" for row in json.dumps(values)[2:-2].split("], [")]
    return json.dumps(values)[1:-1].split(", ")


def export_verification_jsonl(result: VerificationResult) -> str:
    """One JSON line per node, keys in _JSONL_KEYS order, plus a trailing summary line.

    Each line is byte-identical to json.dumps of the node's dict; each column
    is encoded by one json.dumps of its list instead.
    """
    columns = [
        repeat(json.dumps(result.semantics.value))
        if key == "semantics"
        else _json_elements(getattr(result, key).tolist(), nested=key == "deviation")
        for key in _JSONL_KEYS
    ]
    lines = [_JSONL_LINE % row for row in zip(*columns)]
    summary = verification_summary(result)
    summary["summary"] = True
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimulationSummary:
    """Monte Carlo estimates with standard errors, reproducible by seed."""

    n_paths: int
    seed: int
    distribution: str
    mean_terminal: float
    var_terminal: float
    cost: float
    se_mean: float
    se_var: float
    se_cost: float


@np.errstate(over="ignore", invalid="ignore")  # an overflowing estimate is rejected, not warned about
def simulate_monte_carlo(
    spec: MarketSpec,
    policy,
    n_paths: int,
    seed: int,
    distribution="gaussian",
) -> SimulationSummary:
    """Simulate terminal wealth under the applied policy from (t, x).

    distribution is either the string "gaussian" (normal excess returns with
    the market's exact mean and covariance) or a ScenarioTree to sample atoms
    from, which makes the estimates converge to evaluate_cost_exact on that
    same tree. Both laws read each stage's mean mu and factor F from one tree
    (for "gaussian", the market's matched tree) and take o = mu + F z; they
    differ only in the standard shock z: one of the tree's equally likely
    standard points, by one index drawn per path, or normals. Each stage
    draws its shocks in blocks of _PATH_BLOCK paths that read the stream
    as one (n_paths, ...) draw would, so a seed fixes the returns, and the
    statistics are summed block by block: memory is 8 bytes per path (its
    deviation from the mean path) plus one block. The cost
    standard error uses the influence function of Var - (mu1 x + mu2) * Mean.
    An estimate that overflows a float raises ValidationError naming the
    initial wealth.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    applied = _policy_of(policy)
    t, x0 = applied.start_stage, spec.initial_wealth
    rng = np.random.default_rng(seed)
    on_tree = isinstance(distribution, ScenarioTree)
    if on_tree:
        tree = distribution
        _check_tree(tree, spec)
    elif distribution == "gaussian":
        tree = build_matched_tree(derive_excess_moments(spec))
    else:
        raise ValueError(f"unknown distribution {distribution!r}")

    mean_path, dev = x0, np.zeros(n_paths)
    parts = [dev[i : i + _PATH_BLOCK] for i in range(0, n_paths, _PATH_BLOCK)]  # views of dev
    for k in range(t, spec.horizon):
        gain, offset = applied.gain(k), applied.offset(k)
        mu, F = tree.mean[k], tree.factors[k]
        mean_growth = spec.riskless[k] + mu @ gain
        # per unit of z, the rows give a path's growth beyond the mean path's and its shock
        coeffs = np.stack([gain, gain * mean_path + offset]) @ F
        if on_tree:
            table = coeffs @ _standard_points(F.shape[1]).T
        # consecutive blocks read the generator as one (n_paths, ...) draw would
        for part in parts:
            if on_tree:
                growth, shock = np.take(table, rng.integers(table.shape[1], size=len(part)), axis=1)
            else:
                growth, shock = coeffs @ rng.standard_normal((len(part), F.shape[1])).T
            growth += mean_growth
            part *= growth
            part += shock
        mean_path = mean_growth * mean_path + mu @ offset

    def total(f):
        """The sum over all paths of f(dev - dev_mean), one block at a time."""
        return sum(f(part - dev_mean).sum() for part in parts)

    # numpy scalars: an overflow gives inf, rejected below
    dev_mean = dev.mean()
    mean = mean_path + dev_mean
    var = total(np.square) / (n_paths - 1)
    cmu = spec.mu1 * x0 + spec.mu2
    cost = var - cmu * mean
    se_mean = np.sqrt(var / n_paths)
    # the fourth moment in units of var**2, so se_var is finite whenever var is
    kurtosis = total(lambda c: np.square(c * c / var)) / n_paths if var > 0 else 0.0
    se_var = var * math.sqrt(max(kurtosis - (n_paths - 3) / (n_paths - 1), 0.0) / n_paths)

    def influence(c):
        return c * c - var - cmu * c

    # in units of a power of two near its largest entry, which is exact, so the squares cannot overflow
    largest = np.max([np.abs(influence(part - dev_mean)).max() for part in parts])  # NaN propagates
    unit = np.ldexp(1.0, np.frexp(largest)[1])
    influence_mean = total(lambda c: influence(c) / unit) / n_paths
    spread = np.sqrt(total(lambda c: np.square(influence(c) / unit - influence_mean)) / (n_paths - 1))
    se_cost = unit * spread / math.sqrt(n_paths)
    estimates = (mean, var, cost, se_mean, se_var, se_cost)
    if not np.isfinite(estimates).all():
        raise ValidationError(f"initial wealth {x0:g}: the terminal wealth's moments overflow")
    return SimulationSummary(
        n_paths,
        seed,
        "tree" if on_tree else "gaussian",
        *map(float, estimates),
    )
