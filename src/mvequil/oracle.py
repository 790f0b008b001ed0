"""Independent ground truth: exact tree costs, deviation tests, Monte Carlo.

Everything here avoids the solvers' recursions on purpose. Costs are exact
probability-weighted sums over finite-support product trees whose per-stage
moments match the market; equilibrium claims are checked by exactly minimizing
the one-stage spike-deviation cost, which is a quadratic in the deviation.

That quadratic is formed in closed form once per stage. Returns are
independent between stages and every continuation is affine in the deviated
wealth, so per suffix scenario terminal wealth is beta * (X_dev - X*) + rho *
X* + alpha in the deviated and undeviated wealth one stage later: the spread
X_dev - X* grows by s + o.P per stage, the undeviated wealth by s + o.K, and
alpha is the undeviated path's drift from the offsets. The weighted moments of
(beta, rho, alpha) over the suffix tree, together with the stage's atom
moments, give every node's cost, gradient and the stage's shared Hessian.
verify_equilibrium tests all nodes of a stage at once and returns the outcome
as one VerificationResult of per-node arrays.

The deviation notions differ only in the part P of each later control that is
re-applied to the deviated wealth, u_dev = P X_dev + (u* - P X*): P = 0 (open
loop), the own gain K (feedback) or the given strategy part (mixed).
_continuation derives P from the semantics, never from a solver's trace.

Monte Carlo carries each path as a deterministic mean path m plus its own
deviation D. With mu the stage's mean excess return under the sampling law,
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
from .market import ExcessMoments, MarketSpec, ValidationError
from .policy import AffinePolicy, PolicyKind

MAX_LEAF_PATHS = 10**7


class EquilibriumStructureError(RuntimeError):
    """The deviation cost was not convex: solver bug or non-equilibrium policy."""


@dataclass(frozen=True)
class ScenarioTree:
    """Finite-support, stagewise-independent excess-return distribution.

    probabilities[k] is a positive vector summing to one; atoms[k] is the
    matching (n_k, m) array of excess-return support points. Scenarios are
    products across stages (returns are independent between stages).
    """

    probabilities: tuple
    atoms: tuple

    def __post_init__(self):
        probs = tuple(np.array(p, dtype=float) for p in self.probabilities)
        atoms = tuple(np.atleast_2d(np.array(a, dtype=float)) for a in self.atoms)
        if len(probs) != len(atoms):
            raise ValueError("probabilities and atoms must cover the same stages")
        for k, (p, a) in enumerate(zip(probs, atoms)):
            if p.ndim != 1 or a.shape[0] != p.shape[0]:
                raise ValueError(f"stage {k}: atom count does not match probability count")
            if not np.all(np.isfinite(a)) or not np.all(np.isfinite(p)):
                raise ValueError(f"stage {k}: non-finite tree data")
            if np.any(p <= 0):
                raise ValueError(f"stage {k}: probabilities must be positive")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise ValueError(f"stage {k}: probabilities sum to {p.sum()}, not 1")
        for p, a in zip(probs, atoms):
            p.flags.writeable = False
            a.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "atoms", atoms)

    @property
    def horizon(self) -> int:
        return len(self.atoms)

    @property
    def num_assets(self) -> int:
        return self.atoms[0].shape[1]

    def implied_mean(self, k: int) -> np.ndarray:
        return self.probabilities[k] @ self.atoms[k]

    def implied_cov(self, k: int) -> np.ndarray:
        centered = self.atoms[k] - self.implied_mean(k)
        return (centered * self.probabilities[k][:, None]).T @ centered

    def leaf_count(self, start: int = 0) -> int:
        return math.prod(len(p) for p in self.probabilities[start:])


def _stage_factors(moments: ExcessMoments) -> list[np.ndarray]:
    """Per stage, F with F F^T = Cov(O_k): one column per eigenpair that linalg keeps
    and whose eigenvalue is positive (a kept eigenvalue can be slightly negative
    inside the PSD slack). All stages come from one stacked decomposition."""
    eig = eigenbasis(moments.cov_excess)
    keep = eig.keep & (eig.eigenvalues > 0)
    return [Q[:, kept] * np.sqrt(w[kept]) for w, Q, kept in zip(eig.eigenvalues, eig.vectors, keep)]


def build_matched_tree(
    moments: ExcessMoments,
    atoms_per_stage: int | None = None,
    seed: int | None = None,
) -> ScenarioTree:
    """Symmetric sigma-point tree matching each stage's mean and covariance.

    Per stage the covariance is factored through its eigendecomposition,
    keeping the r positive eigenpairs above linalg's cutoff. The cutoff is
    relative to the largest eigenvalue, so scaling a covariance keeps r and
    scales the spread of the atoms. A budget of exactly 2r atoms gives the
    pairs mean +/- sqrt(r) * factor column with equal weights;
    a budget of 2r + 1 or more adds the mean point, keeps all weights equal
    and rescales the columns so both moments stay exact (at most 2r + 1 atoms
    are ever generated). A seed mixes the factor columns by a Haar-random
    rotation, which changes the atoms but not the matched moments. Budgets
    below the minimum (2r, or 1 for a zero covariance) raise ValidationError.
    """
    m = moments.num_assets
    if atoms_per_stage is None:
        atoms_per_stage = 2 * m + 1
    rng = np.random.default_rng(seed) if seed is not None else None
    probs = []
    atoms = []
    for k, factor in enumerate(_stage_factors(moments)):
        mean = moments.mean_excess[k]
        r = factor.shape[1]
        if rng is not None and r > 1:
            # Haar rotation within the range subspace; cov = F F^T is preserved
            Z = rng.standard_normal((r, r))
            Qr, Rr = np.linalg.qr(Z)
            factor = factor @ (Qr * np.sign(np.diag(Rr)))
        if r == 0:
            if atoms_per_stage < 1:
                raise ValidationError(f"stage {k}: need at least 1 atom")
            probs.append(np.array([1.0]))
            atoms.append(mean[None, :].copy())
            continue
        if atoms_per_stage < 2 * r:
            raise ValidationError(
                f"stage {k}: rank {r} covariance needs at least {2 * r} atoms, "
                f"got budget {atoms_per_stage}"
            )
        if atoms_per_stage == 2 * r:
            spread = math.sqrt(r) * factor.T
            pts = np.vstack([mean + spread, mean - spread])
            probs.append(np.full(2 * r, 1.0 / (2 * r)))
        else:
            spread = math.sqrt((2 * r + 1) / 2.0) * factor.T
            pts = np.vstack([mean[None, :], mean + spread, mean - spread])
            probs.append(np.full(2 * r + 1, 1.0 / (2 * r + 1)))
        atoms.append(pts)
    return ScenarioTree(probabilities=tuple(probs), atoms=tuple(atoms))


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


def _suffix_index(total: int, sizes: list[int], stage_pos: int) -> np.ndarray:
    stride = math.prod(sizes[stage_pos + 1 :])
    return (np.arange(total) // stride) % sizes[stage_pos]


def _check_leaf_budget(tree: ScenarioTree, start: int):
    leaves = tree.leaf_count(start)
    if leaves > MAX_LEAF_PATHS:
        raise ValidationError(
            f"tree has {leaves} leaf paths from stage {start}, above the exact-evaluation "
            f"cap of {MAX_LEAF_PATHS}; use Monte Carlo instead"
        )


def _suffix_weights(tree: ScenarioTree, k: int) -> tuple[int, list[int], np.ndarray]:
    sizes = [len(p) for p in tree.probabilities[k:]]
    total = math.prod(sizes)
    weights = np.ones(total)
    for pos in range(len(sizes)):
        idx = _suffix_index(total, sizes, pos)
        weights *= tree.probabilities[k + pos][idx]
    return total, sizes, weights


def _cost_from_terminal(weights: np.ndarray, terminal: np.ndarray, spec: MarketSpec, x: float) -> float:
    mean = float(weights @ terminal)
    var = float(weights @ (terminal - mean) ** 2)
    cost = var - (spec.mu1 * x + spec.mu2) * mean
    if not math.isfinite(cost):
        raise ValidationError(f"wealth {x:g}: the policy's cost overflows")
    return cost


def evaluate_cost_exact(
    tree: ScenarioTree, spec: MarketSpec, policy, k: int | None = None, x: float | None = None
) -> float:
    """Exact cost of following the policy from (k, x) on the tree.

    Returns E(X_N - E X_N)^2 - (mu1 x + mu2) E X_N with both moments computed
    as probability-weighted sums over all suffix scenarios: the spike cost of
    the policy's own control at (k, x), with nothing re-applied, so the
    continuation is the policy's. policy is an AffinePolicy or a solution
    holding one. A cost that overflows a float raises ValidationError naming
    the wealth.
    """
    applied = _policy_of(policy)
    k = applied.start_stage if k is None else int(k)
    x = spec.initial_wealth if x is None else float(x)
    return spike_cost(tree, spec, applied, k, x, applied.control(k, x), PolicyKind.OPEN_LOOP)


@np.errstate(over="ignore", invalid="ignore")  # _cost_from_terminal rejects an overflowing cost
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

    Each scenario carries the deviated and the undeviated wealth forward on
    its own; the frozen continuations replay the undeviated path. A cost that
    overflows a float raises ValidationError naming the wealth.
    """
    applied, _, reapplied = _continuation(policy, semantics)
    u_star_k = applied.control(k, x)
    _check_leaf_budget(tree, k)
    total, sizes, weights = _suffix_weights(tree, k)
    u = np.asarray(u, dtype=float)

    o_k = tree.atoms[k][_suffix_index(total, sizes, 0)]
    # einsum sums each row as the later stages do; a matrix-vector product rounds otherwise
    X_star = spec.riskless[k] * x + np.einsum("ij,j->i", o_k, u_star_k)
    X_dev = spec.riskless[k] * x + np.einsum("ij,j->i", o_k, u)
    for pos, stage in enumerate(range(k + 1, spec.horizon), start=1):
        o = tree.atoms[stage][_suffix_index(total, sizes, pos)]
        u_star = np.outer(X_star, applied.gain(stage)) + applied.offset(stage)
        P = reapplied[applied.row(stage)]
        u_dev = np.outer(X_dev, P) + (u_star - np.outer(X_star, P))
        X_star = spec.riskless[stage] * X_star + np.einsum("ij,ij->i", o, u_star)
        X_dev = spec.riskless[stage] * X_dev + np.einsum("ij,ij->i", o, u_dev)
    return _cost_from_terminal(weights, X_dev, spec, x)


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
    stage's suffix-tree moments, and it is minimized by a least-norm solve. An
    indefinite quadratic raises EquilibriumStructureError; an unbounded one
    (gradient outside the Hessian's column space) returns cost -inf.
    """
    applied, _, reapplied = _continuation(policy, semantics)
    applied.row(k)  # ValueError unless stage k is one of the policy's
    moments = _stage_moments(tree, spec, applied, reapplied, k)
    u_dev, j_dev, _ = _best_spikes(moments, spec, applied, np.array([float(x)]))
    return u_dev[0], float(j_dev[0])


@dataclass(frozen=True)
class _StageMoments:
    """Tree moments that fix the spike-deviation quadratic at one stage.

    Per suffix scenario after stage k, terminal wealth is beta * (X_dev - X*)
    + rho * X* + alpha in the deviated and undeviated wealth at stage k + 1.
    mean (3,) and second (3, 3) are the weighted first and raw second moments
    of (beta, rho, alpha) and cov (3, 3) their covariance; atom_mean and
    atom_cov are the moments of stage k's excess-return atoms.
    """

    stage: int
    mean: np.ndarray
    second: np.ndarray
    cov: np.ndarray
    atom_mean: np.ndarray
    atom_cov: np.ndarray


def _stage_moments(
    tree: ScenarioTree, spec: MarketSpec, applied: AffinePolicy, reapplied: np.ndarray, k: int
) -> _StageMoments:
    """Enumerate the suffix tree after stage k once and take its moments.

    Along each suffix scenario the continuation re-applies the gain P_l (the
    rows of reapplied, from _continuation) to the deviated wealth and replays
    the rest of the undeviated control, u_l = P_l X_dev + (K_l - P_l) X* + c_l,
    so the spread X_dev - X* grows by s + o.P and X* by s + o.K.
    """
    _check_leaf_budget(tree, k)
    total, sizes, weights = _suffix_weights(tree, k + 1)
    beta, rho, alpha = np.ones(total), np.ones(total), np.zeros(total)
    for pos, stage in enumerate(range(k + 1, spec.horizon)):
        idx = _suffix_index(total, sizes, pos)
        atoms, s = tree.atoms[stage], spec.riskless[stage]
        star_growth = (s + atoms @ applied.gain(stage))[idx]
        beta = (s + atoms @ reapplied[applied.row(stage)])[idx] * beta
        rho = star_growth * rho
        alpha = star_growth * alpha + (atoms @ applied.offset(stage))[idx]
    coeffs = np.stack([beta, rho, alpha], axis=1)
    mean = weights @ coeffs
    centered = coeffs - mean
    return _StageMoments(
        stage=k,
        mean=mean,
        second=(coeffs * weights[:, None]).T @ coeffs,
        cov=(centered * weights[:, None]).T @ centered,
        atom_mean=tree.implied_mean(k),
        atom_cov=tree.implied_cov(k),
    )


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing cost is rejected, not warned about
def _best_spikes(
    moments: _StageMoments,
    spec: MarketSpec,
    applied: AffinePolicy,
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best deviation, its cost and the policy's own cost at nodes of one stage.

    x holds each node's wealth, where the policy plays u*. A deviation to u*
    + d leaves the stage-k wealths X_dev - X* = o.d and X* = s x + o.u*, so
    terminal wealth is v.w for v = (beta, rho, alpha) independent of w = (o.d,
    s x + o.u*, 1), and Var = tr(S_v C_w) + E[w]' C_v E[w]. At d = 0 this is
    the cost, and its derivatives in d the gradient and the Hessian 2 (E[beta^2]
    Sigma + Var(beta) mu mu'). The Hessian is shared by every node, so one
    eigendecomposition gives the convexity check, and one least-norm solve
    through it gives every node's step and whether its gradient lies in the
    Hessian's range.
    """
    k = moments.stage
    mu, sigma = moments.atom_mean, moments.atom_cov
    second, cov, mean = moments.second, moments.cov, moments.mean
    u = np.outer(x, applied.gain(k)) + applied.offset(k)
    sigma_u = u @ sigma
    w_mean = np.stack([np.zeros_like(x), spec.riskless[k] * x + u @ mu, np.ones_like(x)], axis=1)
    w_cov_mean = w_mean @ cov
    var = second[1, 1] * _rowdot(sigma_u, u) + _rowdot(w_cov_mean, w_mean)
    mean_weight = spec.mu1 * x + spec.mu2
    j_star = var - mean_weight * (w_mean @ mean)
    overflow = ~np.isfinite(j_star)
    if overflow.any():
        raise ValidationError(f"wealth {x[overflow][0]:g} at stage {k}: the policy's cost overflows")
    grad = 2.0 * second[0, 1] * sigma_u + np.outer(2.0 * w_cov_mean[:, 0] - mean_weight * mean[0], mu)
    hess = 2.0 * (second[0, 0] * sigma + cov[0, 0] * np.outer(mu, mu))

    eig = eigenbasis(hess)
    eigs = eig.eigenvalues
    if not is_psd_spectrum(eigs, 1e-8):
        raise EquilibriumStructureError(
            f"deviation cost at stage {k} is not convex (min curvature {eigs[0]:.3e})"
        )
    step, _, bounded = eig.solve(-grad)
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
    initial_wealth) along tree scenarios; all nodes of a stage are tested in one
    pass from that stage's suffix moments. gap = J_dev - J* clears -tol, with
    tol = 1e-7 * max(1, |J*|), at a node that passes. A policy cost that
    overflows a float at some node raises ValidationError naming its wealth.
    """
    applied, semantics, reapplied = _continuation(policy, semantics)
    t = applied.start_stage
    _check_leaf_budget(tree, t)
    per_stage = []  # (j_star, j_dev, u_dev) of each stage's nodes
    states = np.array([spec.initial_wealth])
    for k in range(t, spec.horizon):
        moments = _stage_moments(tree, spec, applied, reapplied, k)
        u_dev, j_dev, j_star = _best_spikes(moments, spec, applied, states)
        per_stage.append((j_star, j_dev, u_dev))
        controls = np.outer(states, applied.gain(k)) + applied.offset(k)
        growth = spec.riskless[k] * states[None, :] + tree.atoms[k] @ controls.T
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


def export_verification_jsonl(result: VerificationResult) -> str:
    """One JSON line per node, keys in _JSONL_KEYS order, plus a trailing summary line."""
    columns = [
        repeat(result.semantics.value) if key == "semantics" else getattr(result, key).tolist()
        for key in _JSONL_KEYS
    ]
    lines = [json.dumps(dict(zip(_JSONL_KEYS, row))) for row in zip(*columns)]
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


def _atom_indices(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    """n atom indices drawn with probabilities p by rng.choice's own inverse-CDF rule,
    so the same generator state gives the same indices as rng.choice(len(p), n, p=p)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return np.count_nonzero(rng.random(n) >= cdf[:-1, None], axis=0)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing estimate is rejected, not warned about
def simulate_monte_carlo(
    spec: MarketSpec,
    policy,
    n_paths: int,
    seed: int,
    distribution="gaussian",
    moments: ExcessMoments | None = None,
) -> SimulationSummary:
    """Simulate terminal wealth under the applied policy from (t, x).

    distribution is either the string "gaussian" (normal excess returns with
    the market's exact mean and covariance) or a ScenarioTree to sample atoms
    from, which makes the estimates converge to evaluate_cost_exact on that
    same tree. Tree atoms are drawn by rng.choice's rule and normals in the
    same order as an (n_paths, rank) array per stage, so a seed fixes the
    returns. The cost standard error uses the influence function of
    Var - (mu1 x + mu2) * Mean. An estimate that overflows a float raises
    ValidationError naming the initial wealth.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    applied = _policy_of(policy)
    t, x0 = applied.start_stage, spec.initial_wealth
    rng = np.random.default_rng(seed)
    sampling_tree = distribution if isinstance(distribution, ScenarioTree) else None
    if sampling_tree is None and distribution != "gaussian":
        raise ValueError(f"unknown distribution {distribution!r}")
    if sampling_tree is None:
        from .market import derive_excess_moments

        moments = derive_excess_moments(spec) if moments is None else moments
        factors = _stage_factors(moments)

    mean_path, dev = x0, np.zeros(n_paths)
    for k in range(t, spec.horizon):
        gain, offset = applied.gain(k), applied.offset(k)
        mu = moments.mean_excess[k] if sampling_tree is None else sampling_tree.implied_mean(k)
        mean_growth = spec.riskless[k] + mu @ gain
        # per unit of o - mu, the rows give a path's growth beyond the mean path's and its shock
        coeffs = np.stack([gain, gain * mean_path + offset])
        if sampling_tree is not None:
            idx = _atom_indices(rng, sampling_tree.probabilities[k], n_paths)
            growth, shock = np.take(coeffs @ (sampling_tree.atoms[k] - mu).T, idx, axis=1)
        else:
            F = factors[k]
            growth, shock = (coeffs @ F) @ rng.standard_normal((n_paths, F.shape[1])).T
        growth += mean_growth
        dev *= growth
        dev += shock
        mean_path = mean_growth * mean_path + mu @ offset

    # numpy scalars: an overflow gives inf, rejected below
    dev_mean = dev.mean()
    mean = mean_path + dev_mean
    centered = dev - dev_mean
    sq = centered * centered
    var = sq.sum() / (n_paths - 1)
    cmu = spec.mu1 * x0 + spec.mu2
    cost = var - cmu * mean
    se_mean = np.sqrt(var / n_paths)
    # the fourth moment in units of var**2, so se_var is finite whenever var is
    kurtosis = np.mean(np.square(sq / var)) if var > 0 else 0.0
    se_var = var * math.sqrt(max(kurtosis - (n_paths - 3) / (n_paths - 1), 0.0) / n_paths)
    influence = sq - var - cmu * centered
    # in units of a power of two near its largest entry, which is exact, so the squares cannot overflow
    unit = np.ldexp(1.0, np.frexp(np.abs(influence).max())[1])
    se_cost = unit * (influence / unit).std(ddof=1) / math.sqrt(n_paths)
    estimates = (mean, var, cost, se_mean, se_var, se_cost)
    if not np.isfinite(estimates).all():
        raise ValidationError(f"initial wealth {x0:g}: the terminal wealth's moments overflow")
    return SimulationSummary(
        n_paths,
        seed,
        "tree" if sampling_tree is not None else "gaussian",
        *map(float, estimates),
    )
