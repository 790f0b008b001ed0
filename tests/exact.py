"""Reference deviation costs that walk a scenario tree's leaf paths.

The oracle forms every cost from a backward pass over moments; these
references enumerate the suffix scenarios instead, so a test that compares
the two compares two derivations. Each reads only the package's public API.

leaf_walk_cost carries whole wealths and atoms in floats, so it loses the
spread where the covariance is small against the mean's square: with mean
excess returns of a few percent it agrees with the closed form within about
1e-11 of max(1, |J*|) on a covariance of scale 1e-12, 1e-9 at 1e-16 and only
1e-2 at 1e-30. rational_spike_cost carries every wealth as a fraction, and
exact_spike_cost rounds its cost once, at the end, so it holds at every
scale. exact_best_deviation fits the exact quadratic to rational costs and
minimizes it in rational arithmetic, so it checks that no deviation does
better than the oracle's best.
"""

import math
import operator
from fractions import Fraction

import numpy as np

from mvequil import MAX_LEAF_PATHS, AffinePolicy, PolicyKind, ValidationError


def reapplied_gains(target, semantics=None):
    """The applied policy and the gain rows P that each later control re-applies
    to the deviated wealth: 0 (open loop), the own gains (feedback) or the
    solution's strategy part (mixed). Row i belongs to stage start_stage + i."""
    applied = target if isinstance(target, AffinePolicy) else target.policy
    semantics = applied.kind if semantics is None else semantics
    if semantics is PolicyKind.OPEN_LOOP:
        return applied, np.zeros_like(applied.gains)
    if semantics is PolicyKind.FEEDBACK:
        return applied, applied.gains
    return applied, target.feedback_part.gains[applied.start_stage :]


def _suffix_index(total: int, sizes: list[int], stage_pos: int) -> np.ndarray:
    stride = math.prod(sizes[stage_pos + 1 :])
    return (np.arange(total) // stride) % sizes[stage_pos]


@np.errstate(over="ignore", invalid="ignore")  # an overflowing cost is rejected, not warned about
def leaf_walk_cost(tree, spec, target, k, x, u, semantics=None) -> float:
    """Cost of deviating to u at (k, x), continuation per the semantics, by a float walk of every leaf path.

    Each scenario carries the deviated and the undeviated wealth forward on
    its own; the frozen continuations replay the undeviated path. A cost that
    overflows a float raises ValidationError naming the wealth.
    """
    applied, reapplied = reapplied_gains(target, semantics)
    u_star_k = applied.control(k, x)
    if tree.leaf_count(k) > MAX_LEAF_PATHS:
        raise ValueError(f"{tree.leaf_count(k)} leaf paths from stage {k} are too many to walk")
    atoms = [tree.atoms(stage) for stage in range(k, spec.horizon)]
    sizes = [len(a) for a in atoms]
    total = math.prod(sizes)
    u = np.asarray(u, dtype=float)

    o_k = atoms[0][_suffix_index(total, sizes, 0)]
    # einsum sums each row as the later stages do; a matrix-vector product rounds otherwise
    X_star = spec.riskless[k] * x + np.einsum("ij,j->i", o_k, u_star_k)
    X_dev = spec.riskless[k] * x + np.einsum("ij,j->i", o_k, u)
    for pos, stage in enumerate(range(k + 1, spec.horizon), start=1):
        o = atoms[pos][_suffix_index(total, sizes, pos)]
        u_star = np.outer(X_star, applied.gain(stage)) + applied.offset(stage)
        P = reapplied[applied.row(stage)]
        u_dev = np.outer(X_dev, P) + (u_star - np.outer(X_star, P))
        X_star = spec.riskless[stage] * X_star + np.einsum("ij,ij->i", o, u_star)
        X_dev = spec.riskless[stage] * X_dev + np.einsum("ij,ij->i", o, u_dev)
    cost = float(X_dev.var() - (spec.mu1 * x + spec.mu2) * X_dev.mean())  # equally likely scenarios
    if not math.isfinite(cost):
        raise ValidationError(f"wealth {x:g}: the policy's cost overflows")
    return cost


def exact_spike_cost(tree, spec, target, k, x, u, semantics=None) -> float:
    """Cost of deviating to u at (k, x), continuation per the semantics, rounded once from the rational walk."""
    return float(rational_spike_cost(tree, spec, target, k, x, u, semantics))


def rational_spike_cost(tree, spec, target, k, x, u, semantics=None) -> Fraction:
    """Cost of deviating to u at (k, x), continuation per the semantics, in exact rational arithmetic.

    Every float is an integer over a power of two, so over the largest such
    denominator D of the inputs every input is an integer, and a wealth after
    j stages is an integer over D^(2j + 1): the walk over the leaf paths
    multiplies and adds integers and rounds nothing, and the cost is the
    exact Fraction. Each atom is the sum of its two float parts, mean and F
    z, taken exactly; the rounded float sum would lose the spread where F z
    is tiny against the mean. The undeviated control at (k, x) is the
    policy's K x + c, exactly.
    """
    applied, reapplied = reapplied_gains(target, semantics)
    stages = range(k, spec.horizon)
    # the standard points are zero and plus and minus sqrt((2r + 1) / 2) times each unit vector
    shocks = [math.sqrt((2 * tree.factors[stage].shape[1] + 1) / 2.0) * tree.factors[stage].T for stage in stages]
    inputs = (x, u, spec.riskless[k:], tree.mean[k:], applied.gains, applied.offsets, reapplied, *shocks)
    D = max(float(v).as_integer_ratio()[1] for a in inputs for v in np.ravel(a))

    def ints(values) -> list[int]:
        return [n * (D // d) for n, d in (float(v).as_integer_ratio() for v in np.ravel(values))]

    def controls(row, star, dev, lift):
        """The undeviated and deviated controls at a node of wealths over lift, as integers over D lift."""
        K, c, P = (ints(a[row]) for a in (applied.gains, applied.offsets, reapplied))
        u_star = [g * star + o * lift for g, o in zip(K, c)]
        return u_star, [p * (dev - star) + v for p, v in zip(P, u_star)]

    (wealth,) = ints([x])
    nodes = [(wealth, wealth)]  # (undeviated, deviated) wealth at each node, over lift
    lift = D
    deviations = [(controls(applied.row(k), wealth, wealth, lift)[0], [v * D for v in ints(u)])]
    for stage in stages:
        s, mean = ints(spec.riskless[stage])[0], ints(tree.mean[stage])
        atoms = [mean] + [[a + b for a, b in zip(mean, ints(z))] for z in (*shocks[stage - k], *-shocks[stage - k])]
        nodes = [
            (s * star * D + sum(map(operator.mul, o, u_star)), s * dev * D + sum(map(operator.mul, o, u_dev)))
            for (star, dev), (u_star, u_dev) in zip(nodes, deviations)
            for o in atoms
        ]
        lift *= D * D
        if stage + 1 < spec.horizon:
            deviations = [controls(applied.row(stage + 1), star, dev, lift) for star, dev in nodes]
    terminal = [dev for _, dev in nodes]
    n = len(terminal)
    mean = Fraction(sum(terminal), n * lift)
    var = Fraction(n * sum(w * w for w in terminal) - sum(terminal) ** 2, (n * lift) ** 2)
    weight = Fraction(float(spec.mu1)) * Fraction(float(x)) + Fraction(float(spec.mu2))
    return var - weight * mean


def _solve_rational(A: list, b: list) -> list:
    """The solution of the square system A y = b in Fractions, by Gaussian elimination with exact pivots."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)  # StopIteration: A is singular
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [a - factor * c for a, c in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_best_deviation(tree, spec, target, k, x, semantics=None) -> float:
    """Least deviation cost over every u at (k, x), continuation per the semantics, rounded once.

    The cost is an exact quadratic q + g.d + sum_{i<=j} h_ij d_i d_j in d = u - u*,
    so its 1 + m + m(m+1)/2 coefficients solve a linear system whose rows are
    rational costs at as many float probes around u*: u*, u* plus and minus a
    step along each axis, and u* plus a step along each pair of axes. The
    minimizer solves H d = -g with H_ii = 2 h_ii and H_ij = h_ij, whose
    minimum is q + g.d / 2. H must be nonsingular, as on a full-rank tree.
    """
    applied, _ = reapplied_gains(target, semantics)
    u_star = applied.control(k, x)
    m = len(u_star)
    step = 2.0 ** round(math.log2(max(1.0, np.abs(u_star).max())))
    offsets = [np.zeros(m)]
    offsets += [sign * step * np.eye(m)[i] for i in range(m) for sign in (1, -1)]
    offsets += [step * (np.eye(m)[i] + np.eye(m)[j]) for i in range(m) for j in range(i + 1, m)]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    rows, costs = [], []
    for offset in offsets:
        u = u_star + offset
        d = [Fraction(float(a)) - Fraction(float(b)) for a, b in zip(u, u_star)]  # the probe's exact offset
        rows.append([Fraction(1)] + d + [d[i] * d[j] for i, j in pairs])
        costs.append(rational_spike_cost(tree, spec, target, k, x, u, semantics))
    q, *coefficients = _solve_rational(rows, costs)
    g, h = coefficients[:m], dict(zip(pairs, coefficients[m:]))
    H = [[2 * h[i, i] if i == j else h[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    d_best = _solve_rational(H, [-gi for gi in g])
    return float(q + sum(gi * di for gi, di in zip(g, d_best)) / 2)
