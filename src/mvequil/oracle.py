"""Independent ground truth: exact tree costs, deviation tests, Monte Carlo.

Everything here avoids the solvers' recursions on purpose. Costs are exact
probability-weighted sums over finite-support product trees whose per-stage
moments match the market; equilibrium claims are checked by exactly minimizing
the one-stage spike-deviation cost, which is a quadratic in the deviation.

That quadratic is formed in closed form once per stage. Returns are
independent between stages and every continuation is affine in the deviated
wealth, so per suffix scenario terminal wealth is beta * X_dev + gamma * X* +
alpha in the deviated and undeviated wealth one stage later. The weighted
moments of (beta, gamma, alpha) over the suffix tree, together with the stage's
atom moments, give every node's cost, gradient and the stage's shared Hessian.
verify_equilibrium tests all nodes of a stage at once and returns the outcome
as one VerificationResult of per-node arrays.

The deviation notions differ only in the part P of each later control that is
re-applied to the deviated wealth, u_dev = P X_dev + (u* - P X*): P = 0 (open
loop), the own gain K (feedback) or the given strategy part (mixed).
_continuation derives P from the semantics, never from a solver's trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .linalg import DEFAULT_PSD_TOL, eigenbasis
from .market import ExcessMoments, MarketSpec, ValidationError
from .policy import AffinePolicy, PolicyKind

MAX_LEAF_PATHS = 10**7


class EquilibriumStructureError(RuntimeError):
    """The deviation cost was not convex: solver bug or non-equilibrium policy."""


# How the continuation reacts to a one-stage spike deviation is the notion itself.
DeviationSemantics = PolicyKind


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


def _covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = cov, one column per eigenpair above the PSD cutoff."""
    w, Q = np.linalg.eigh(0.5 * (cov + cov.T))
    cutoff = DEFAULT_PSD_TOL * max(1.0, float(np.max(np.abs(w)))) if w.size else 0.0
    keep = w > cutoff
    return Q[:, keep] * np.sqrt(w[keep])


def build_matched_tree(
    moments: ExcessMoments,
    atoms_per_stage: int | None = None,
    seed: int | None = None,
) -> ScenarioTree:
    """Symmetric sigma-point tree matching each stage's mean and covariance.

    Per stage the covariance is factored through its eigendecomposition,
    keeping the r eigenpairs above the PSD cutoff. A budget of exactly 2r
    atoms gives the pairs mean +/- sqrt(r) * factor column with equal weights;
    a budget of 2r + 1 or more adds the mean point, keeps all weights equal
    and rescales the columns so both moments stay exact (at most 2r + 1 atoms
    are ever generated). A seed mixes the factor columns by a Haar-random
    rotation, which changes the atoms but not the matched moments. Budgets
    below the minimum (2r, or 1 for a zero covariance) raise ValidationError.
    """
    N, m = moments.horizon, moments.num_assets
    if atoms_per_stage is None:
        atoms_per_stage = 2 * m + 1
    rng = np.random.default_rng(seed) if seed is not None else None
    probs = []
    atoms = []
    for k in range(N):
        mean = moments.mean_excess[k]
        factor = _covariance_factor(moments.cov_excess[k])
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


def _continuation(target, semantics: DeviationSemantics | None = None):
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
        raise TypeError("mixed semantics needs the MixedSolution, not just the applied policy")
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
    return var - (spec.mu1 * x + spec.mu2) * mean


def evaluate_cost_exact(
    tree: ScenarioTree, spec: MarketSpec, policy, k: int | None = None, x: float | None = None
) -> float:
    """Exact cost of following the policy from (k, x) on the tree.

    Returns E(X_N - E X_N)^2 - (mu1 x + mu2) E X_N with both moments computed
    as probability-weighted sums over all suffix scenarios. policy is an
    AffinePolicy or a solution holding one.
    """
    applied = _policy_of(policy)
    k = applied.start_stage if k is None else int(k)
    x = spec.initial_wealth if x is None else float(x)
    applied.row(k)  # ValueError unless stage k is one of the policy's
    _check_leaf_budget(tree, k)
    total, sizes, weights = _suffix_weights(tree, k)
    X = np.full(total, x)
    for pos, stage in enumerate(range(k, spec.horizon)):
        o = tree.atoms[stage][_suffix_index(total, sizes, pos)]
        u = np.outer(X, applied.gain(stage)) + applied.offset(stage)
        X = spec.riskless[stage] * X + np.einsum("ij,ij->i", o, u)
    return _cost_from_terminal(weights, X, spec, x)


def spike_cost(
    tree: ScenarioTree,
    spec: MarketSpec,
    policy,
    k: int,
    x: float,
    u: np.ndarray,
    semantics: DeviationSemantics | None = None,
    x_star: float | None = None,
) -> float:
    """Exact cost of deviating to u at (k, x), continuation per the semantics.

    x_star is the undeviated state at the node (defaults to x); the frozen
    continuations replay the undeviated path grown from it per scenario.
    """
    applied, _, reapplied = _continuation(policy, semantics)
    x_star = x if x_star is None else float(x_star)
    u_star_k = applied.control(k, x_star)
    _check_leaf_budget(tree, k)
    total, sizes, weights = _suffix_weights(tree, k)
    u = np.asarray(u, dtype=float)

    o_k = tree.atoms[k][_suffix_index(total, sizes, 0)]
    X_star = spec.riskless[k] * x_star + o_k @ u_star_k
    X_dev = spec.riskless[k] * x + o_k @ u
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
    semantics: DeviationSemantics | None = None,
    x_star: float | None = None,
) -> tuple[np.ndarray, float]:
    """Globally best one-stage deviation at (k, x) and its exact cost.

    x_star is the undeviated state at the node (defaults to x). The deviation
    cost is an exact quadratic in u (terminal wealth is affine in u per
    scenario); its gradient and Hessian come in closed form from the stage's
    suffix-tree moments, and it is minimized by a least-norm solve. An
    indefinite quadratic raises EquilibriumStructureError; an unbounded one
    (gradient outside the Hessian's column space) returns cost -inf.
    """
    applied, _, reapplied = _continuation(policy, semantics)
    applied.row(k)  # ValueError unless stage k is one of the policy's
    x_star = x if x_star is None else x_star
    u_dev, j_dev, _ = _best_spikes(
        _stage_moments(tree, spec, applied, reapplied, k),
        spec,
        applied,
        np.array([float(x)]),
        np.array([float(x_star)]),
    )
    return u_dev[0], float(j_dev[0])


@dataclass(frozen=True)
class _StageMoments:
    """Tree moments that fix the spike-deviation quadratic at one stage.

    Per suffix scenario after stage k, terminal wealth is beta * X_dev +
    gamma * X* + alpha in the deviated and undeviated wealth at stage k + 1.
    mean (3,) and second (3, 3) are the weighted first and raw second moments
    of (beta, gamma, alpha) and cov (3, 3) their covariance; atom_mean and
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
    so both wealths stay affine in (X_dev, X*, 1).
    """
    _check_leaf_budget(tree, k)
    total, sizes, weights = _suffix_weights(tree, k + 1)
    beta, gamma, alpha = np.ones(total), np.zeros(total), np.zeros(total)
    growth, drift = np.ones(total), np.zeros(total)  # X*_l = growth * X*_{k+1} + drift
    for pos, stage in enumerate(range(k + 1, spec.horizon)):
        idx = _suffix_index(total, sizes, pos)
        atoms, s = tree.atoms[stage], spec.riskless[stage]
        gain, P = applied.gain(stage), reapplied[applied.row(stage)]
        dev_growth = (s + atoms @ P)[idx]
        replayed = (atoms @ (gain - P))[idx]
        income = (atoms @ applied.offset(stage))[idx]
        star_growth = (s + atoms @ gain)[idx]
        gamma = dev_growth * gamma + replayed * growth
        alpha = dev_growth * alpha + replayed * drift + income
        beta = dev_growth * beta
        drift = star_growth * drift + income
        growth = star_growth * growth
    coeffs = np.stack([beta, gamma, alpha], axis=1)
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


def _best_spikes(
    moments: _StageMoments,
    spec: MarketSpec,
    applied: AffinePolicy,
    x: np.ndarray,
    x_star: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best deviation, its cost and the policy's own cost at nodes of one stage.

    x and x_star hold each node's current and undeviated wealth. With y = s x
    + o.u and z = s x* + o.u* the stage-k wealths, terminal wealth is v.w for
    v = (beta, gamma, alpha) independent of w = (y, z, 1), so Var = tr(S_v C_w)
    + E[w]' C_v E[w]. The Hessian 2 (E[beta^2] Sigma + Var(beta) mu mu') is
    shared by every node, so one eigendecomposition gives the convexity check,
    and one least-norm solve through it gives every node's step and whether its
    gradient lies in the Hessian's range.
    """
    k = moments.stage
    mu, sigma = moments.atom_mean, moments.atom_cov
    second, cov, mean = moments.second, moments.cov, moments.mean
    s = spec.riskless[k]
    u = np.outer(x, applied.gain(k)) + applied.offset(k)
    u_star = np.outer(x_star, applied.gain(k)) + applied.offset(k)
    sigma_u, sigma_u_star = u @ sigma, u_star @ sigma
    w_mean = np.stack([s * x + u @ mu, s * x_star + u_star @ mu, np.ones_like(x)], axis=1)
    w_cov_mean = w_mean @ cov
    var = (
        second[0, 0] * _rowdot(sigma_u, u)
        + 2.0 * second[0, 1] * _rowdot(sigma_u, u_star)
        + second[1, 1] * _rowdot(sigma_u_star, u_star)
        + _rowdot(w_cov_mean, w_mean)
    )
    mean_weight = spec.mu1 * x + spec.mu2
    j_star = var - mean_weight * (w_mean @ mean)
    grad = 2.0 * (second[0, 0] * sigma_u + second[0, 1] * sigma_u_star)
    grad += np.outer(2.0 * w_cov_mean[:, 0] - mean_weight * mean[0], mu)
    hess = 2.0 * (second[0, 0] * sigma + cov[0, 0] * np.outer(mu, mu))

    eig = eigenbasis(hess)
    eigs = eig.eigenvalues
    if eigs[0] < -1e-8 * max(1.0, float(np.max(np.abs(eigs)))):
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

    semantics: DeviationSemantics
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
    semantics: DeviationSemantics | None = None,
) -> VerificationResult:
    """Spike-deviation test at every reachable node of every stage.

    Nodes are the undeviated wealth values reached from (initial_time,
    initial_wealth) along tree scenarios; all nodes of a stage are tested in one
    pass from that stage's suffix moments. gap = J_dev - J* clears -tol, with
    tol = 1e-7 * max(1, |J*|), at a node that passes.
    """
    applied, semantics, reapplied = _continuation(policy, semantics)
    t = applied.start_stage
    _check_leaf_budget(tree, t)
    per_stage = []  # (j_star, j_dev, u_dev) of each stage's nodes
    states = np.array([spec.initial_wealth])
    for k in range(t, spec.horizon):
        moments = _stage_moments(tree, spec, applied, reapplied, k)
        u_dev, j_dev, j_star = _best_spikes(moments, spec, applied, states, states)
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
    same tree. The cost standard error uses the influence function of
    Var - (mu1 x + mu2) * Mean.
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
        factors = [_covariance_factor(cov) for cov in moments.cov_excess]

    X = np.full(n_paths, x0)
    for k in range(t, spec.horizon):
        if sampling_tree is not None:
            p = sampling_tree.probabilities[k]
            idx = rng.choice(len(p), size=n_paths, p=p)
            o = sampling_tree.atoms[k][idx]
        else:
            F = factors[k]
            o = moments.mean_excess[k] + rng.standard_normal((n_paths, F.shape[1])) @ F.T
        u = np.outer(X, applied.gain(k)) + applied.offset(k)
        X = spec.riskless[k] * X + np.einsum("ij,ij->i", o, u)

    mean = float(X.mean())
    var = float(X.var(ddof=1))
    cmu = spec.mu1 * x0 + spec.mu2
    cost = var - cmu * mean
    centered = X - mean
    se_mean = float(centered.std(ddof=1) / math.sqrt(n_paths))
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - (n_paths - 3) / (n_paths - 1) * var**2, 0.0) / n_paths)
    influence = centered**2 - var - cmu * centered
    se_cost = float(influence.std(ddof=1) / math.sqrt(n_paths))
    return SimulationSummary(
        n_paths=n_paths,
        seed=seed,
        distribution="tree" if sampling_tree is not None else "gaussian",
        mean_terminal=mean,
        var_terminal=var,
        cost=cost,
        se_mean=se_mean,
        se_var=se_var,
        se_cost=se_cost,
    )
