"""One eigendecomposition per symmetric matrix, the rules stated on it, and
the stage solves of the backward recursion through the covariance.

``eigenbasis`` decomposes a symmetric M once and keeps what every rule needs:
all eigenvalues, which the PSD test (``is_psd_spectrum``) reads, and all
eigenvectors with a mask of those the rank cutoff keeps, through which
``Eigenbasis.solve`` returns the least-norm solutions of a stack of
right-hand sides together with their range residuals. The m x m matrix M^+
is never formed: inverting every kept eigenvalue overflows once they are
subnormal, while the solve divides each right-hand side's coordinates
directly. The rank cutoff, relative to the largest eigenvalue magnitude, is
stated once (``_kept``); it sets every eigenvalue-based rank in the
package: the covariances' in the stage solves, the oracle's tree and Monte
Carlo. The gain matrices' rank rule below applies the same DEFAULT_PINV_RTOL.

Every backward recursion in this package solves stage equations
``G u = -target`` with G = mean_weight mu mu^T + cov_weight Sigma, a covariance
plus a rank-one term in the mean, and every right-hand side a multiple of mu.
``covariance_solve`` therefore decomposes each stage's Sigma once and solves
Sigma^+ mu, weight-free, and the market keeps the result as each covariance's
one decomposition (``MarketSpec.cov_solve``). Most covariances need no
eigenvalues: it factors each stage's Sigma, less twice the cutoff times its
trace, by Cholesky, and a factorization that completes proves every eigenvalue
clears the cutoff (Higham 2002, ch. 10), so the stage is full rank and positive
definite. Only the stages it leaves are decomposed, by one stacked ``eigh``,
whose signed extreme eigenvalues give the market's PSD check. The full-rank
stages solve by LU, the others through their eigenbasis.
``CovarianceSolve.solve`` gives G^+ mu, every range residual and G's PSD test
in closed form for any weights. G's rank against Sigma's decides, and the rank
rule (``CovarianceSolve.rank_rule``) states it without G's eigenvalues (the
rank-one update; Golub 1973, Bunch, Nielsen & Sorensen 1978): one more when
mu's kernel part enters G's range, one fewer when mu leaves it, which happens
when den = cov_weight 2^e + mean_weight q, the number G^+ mu = y / den divides
by, is zero within the cutoff. To first order, den measures G's vanishing
eigenvalue only up to Sigma's condition number on its range, so the rule and
the cutoff on G's eigenvalues may disagree inside a band of that width at the
cutoff; outside it they agree. No solve decomposes G: ``gain_eigenvalues``
computes its eigenvalues for the outputs that print them, and for the residual
of a failed PSD test.

Everything works on a stack of matrices (..., m, m) as well as on one: a
stack is decomposed by one ``eigh`` call and solved by one batched product,
and every rule applies to each matrix of the stack on its own. A single
matrix is the case ``... = ()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

# the rank cutoff and the range and PSD tolerances of the whole package; only
# the oracle's convexity test passes its own PSD slack
DEFAULT_PINV_RTOL = 1e-10
DEFAULT_RANGE_RTOL = 1e-8
DEFAULT_PSD_TOL = 1e-10
_SYM_RTOL = 1e-8
# stages per stacked LU solve: their scaled copies stay under 1 MB at m = 50
_LU_BLOCK = 32


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (along the last axis) in one vectorized pass.

    Each row is scaled by its own power of two, which is exact, so the sum of
    squares cannot overflow; a row with a non-finite entry has a non-finite
    norm.
    """
    big = np.abs(rows).max(axis=-1, keepdims=True, initial=0.0)
    scale = np.ldexp(1.0, np.frexp(big)[1] - 1)
    scaled = rows / scale
    return scale[..., 0] * np.sqrt(np.einsum("...i,...i->...", scaled, scaled))


def _require_symmetric(M: np.ndarray, what: str) -> np.ndarray:
    """M, or each matrix of a stack (..., m, m), made exactly symmetric.

    An exactly symmetric M, the common case, comes back as is: no copy, no
    norms. Raises LinAlgError on a non-square shape, a non-finite entry in
    any matrix, or a matrix whose asymmetry exceeds _SYM_RTOL * max(1, ||M||)
    (Frobenius norms).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise np.linalg.LinAlgError(f"{what}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise np.linalg.LinAlgError(f"{what}: matrix has non-finite entries")
    Mt = M.swapaxes(-1, -2)
    if np.array_equal(M, Mt):
        return M
    flat = M.shape[:-2] + (-1,)
    asymmetry = _row_norms((M - Mt).reshape(flat))
    too_big = (asymmetry > _SYM_RTOL) & (asymmetry > _SYM_RTOL * _row_norms(M.reshape(flat)))
    if too_big.any():
        raise np.linalg.LinAlgError(f"{what}: matrix is not symmetric")
    # exact symmetry for eigh; asymmetry beyond tolerance was rejected above
    return 0.5 * (M + Mt)


def is_psd_spectrum(eigenvalues: np.ndarray, tol: float = DEFAULT_PSD_TOL):
    """Whether ascending eigenvalues (..., m) are PSD within a relative slack:
    lambda_min >= -tol * max(1, lambda_max), one answer per spectrum."""
    eigenvalues = np.asarray(eigenvalues)
    return eigenvalues[..., 0] >= -tol * np.maximum(1.0, eigenvalues[..., -1])


@dataclass(frozen=True)
class Eigenbasis:
    """A symmetric matrix M, or a stack (..., m, m) of them, through its eigendecomposition.

    eigenvalues (..., m) are all of M's eigenvalues in ascending order and
    vectors (..., m, m) the matching eigenvectors as columns. keep (..., m)
    marks the eigenvalues that the package's one rank cutoff keeps.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    keep: np.ndarray

    @property
    def rank(self):
        """The number of kept eigenvalues, per matrix."""
        return np.count_nonzero(self.keep, axis=-1)

    def solve(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Least-norm solutions X = M^+ v for the rows v of V, with range tests.

        V is (..., r, m), r rows per matrix, or (..., m), one row per matrix.
        Returns (X, residual, ok), one entry per row: residual = ||v - B B^T v||
        for B the kept eigenvectors, and ok means
        residual <= DEFAULT_RANGE_RTOL * max(1, ||v||); a non-finite residual
        never passes. A solution too large for a float comes back non-finite
        without a warning; residual and ok do not depend on X.
        """
        V = np.asarray(V, dtype=float)
        one_row = V.ndim == self.eigenvalues.ndim
        if one_row:
            V = V[..., None, :]
        coords, outside = self.split(V)
        residual = _row_norms(outside)
        ok = _in_range(residual, lambda: _row_norms(V))
        keep = self.keep[..., None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            X = (coords / np.where(keep, self.eigenvalues[..., None, :], 1.0)) @ self.vectors.swapaxes(-1, -2)
        if one_row:
            return X[..., 0, :], residual[..., 0], ok[..., 0]
        return X, residual, ok

    def __getitem__(self, index) -> Eigenbasis:
        """The eigenbasis of the matrices index selects from a stack."""
        return Eigenbasis(self.eigenvalues[index], self.vectors[index], self.keep[index])

    def split(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates of the rows v of V (..., r, m) on the eigenvectors,
        zero on those not kept, and each row's part v - B B^T v outside the
        kept eigenvectors B."""
        coords = np.where(self.keep[..., None, :], V @ self.vectors, 0.0)
        return coords, V - coords @ self.vectors.swapaxes(-1, -2)


def _in_range(residual: np.ndarray, norms) -> np.ndarray:
    """residual <= DEFAULT_RANGE_RTOL * max(1, ||v||), with norms() giving ||v||
    only when some residual exceeds the tolerance; a non-finite residual never passes."""
    ok = residual <= DEFAULT_RANGE_RTOL
    if not ok.all():
        ok |= np.isfinite(residual) & (residual <= DEFAULT_RANGE_RTOL * norms())
    return ok


def _kept(eigenvalues: np.ndarray) -> np.ndarray:
    """The rank cutoff: which eigenvalues (..., m) have a magnitude above
    DEFAULT_PINV_RTOL times their spectrum's largest; the others count as zero."""
    magnitude = np.abs(eigenvalues)
    return magnitude > DEFAULT_PINV_RTOL * magnitude.max(axis=-1, keepdims=True, initial=0.0)


def eigenbasis(M: np.ndarray) -> Eigenbasis:
    """Decompose symmetric M, or a stack (..., m, m), with one eigh call; the
    rank cutoff marks the eigenvalues kept."""
    M = _require_symmetric(M, "eigenbasis")
    w, Q = np.linalg.eigh(M)
    return Eigenbasis(eigenvalues=w, vectors=Q, keep=_kept(w))


@dataclass(frozen=True)
class CovarianceSolve:
    """Each stage's covariance decomposed once, and its solve of Sigma^+ mu,
    weight-free, for the gain matrices built on it.

    Per stage, for the stages' Sigma and mu: exponent (N,), the e of the power
    of two 2^e at Sigma's largest entry magnitude, by which every decomposition
    scales Sigma first, so a subnormal covariance decomposes; certified (N,),
    whether the Cholesky factorization of Sigma / 2^e - 2 DEFAULT_PINV_RTOL
    tr(Sigma / 2^e) I completes. It completes only if Sigma's smallest
    eigenvalue exceeds that shift up to rounding (Higham 2002, ch. 10), and
    tr >= lambda_max for a PSD matrix, so a certified stage is positive
    definite and full rank under the cutoff, with a factor 2 to spare for the
    factorization's rounding. One stacked eigh decomposes the other stages:
    psd (N,) is is_psd_spectrum of Sigma's signed spectrum there, decided in
    units of 2^e so that it holds past the float range, True on the
    certified stages; min_eigenvalue (N,) and sigma_max (N,) are Sigma's
    smallest eigenvalue and largest eigenvalue magnitude there, zero on the
    certified stages, whose kernel is zero. rank (N,) under the cutoff;
    y (N, m) = (Sigma / 2^e)^+ mu and q (N,) = mu . y, so the scaling by 2^e is
    exact whatever Sigma's scale; kernel (N, m), the part of mu in Sigma's
    kernel, and kernel_norm (N,) its norm; mean_norm (N,) = ||mu||;
    in_range (N,), the range condition, mu in Sigma's column space, by the
    range test of Eigenbasis.solve; dropped_residual (N,), mu's residual once
    the direction y leaves the range as well; and cov_max and mean_max (N,),
    the largest entry magnitudes of Sigma and mu, which bound G's entries.

    Its methods take a stage index k and weights for that stage: an int k
    with weights (D,), one per gain matrix, or an index array or slice of
    stages with weights that broadcast against it.
    """

    certified: np.ndarray
    psd: np.ndarray
    min_eigenvalue: np.ndarray
    sigma_max: np.ndarray
    rank: np.ndarray
    exponent: np.ndarray
    y: np.ndarray
    q: np.ndarray
    kernel: np.ndarray
    kernel_norm: np.ndarray
    mean_norm: np.ndarray
    in_range: np.ndarray
    dropped_residual: np.ndarray
    cov_max: np.ndarray
    mean_max: np.ndarray

    def __post_init__(self):
        for f in fields(self):  # read-only: the market's one solve is shared by every solver
            getattr(self, f.name).flags.writeable = False

    def from_stage(self, t: int) -> CovarianceSolve:
        """The solve of stages t on."""
        return CovarianceSolve(**{f.name: getattr(self, f.name)[t:] for f in fields(self)})

    def rank_rule(self, k, cw, mow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rank rule for stage k's gain matrices, one per weight pair: (den,
        enters, leaves), whether mu's kernel part enters G's range and whether
        mu leaves it. Where neither, G's rank is Sigma's.

        den = cw 2^e + mow q, and G^+ mu = y / den while mu stays in
        range(Sigma). mu_K enters when mow ||mu_K||^2 clears the rank cutoff
        against G's scale, max(|cw| sigma_max, |mow| ||mu||^2). Otherwise mu
        leaves when den, which cancels from |cw| 2^e + |mow| q, is within the
        cutoff of that sum: G has lost the one rank the determinant lemma lets
        it lose. Numbers in, numbers out: weights given as numpy scalars come
        back as numpy scalars.
        """
        q, size = self.q[k], abs(mow)
        scaled = np.ldexp(cw, self.exponent[k])
        den = scaled + mow * q
        scale = np.maximum(abs(cw) * self.sigma_max[k], size * self.mean_norm[k] ** 2)
        enters = size * self.kernel_norm[k] ** 2 > DEFAULT_PINV_RTOL * scale
        return den, enters, ~enters & (abs(den) <= DEFAULT_PINV_RTOL * (abs(scaled) + size * q))

    def _is_psd(self, k, cw, mow, den, enters, leaves) -> np.ndarray:
        """The PSD test of stage k's gain matrices from G's inertia, given the rank rule's outcome.

        Sigma's kept eigenvalues are positive, so cw Sigma is PSD when cw >= 0
        or Sigma is zero. When mu's kernel part mu_K enters, the Schur
        complement on it gives G the inertia of {cw sigma_i} and
        mow ||mu_K||^2: G is PSD when cw Sigma is and mow > 0. Otherwise G acts
        on range(Sigma), zero when Sigma is, where the eigenvalue the rank-one
        term moves across zero crosses it with den: G is PSD when den >= 0, or
        mu leaves, and cw Sigma is PSD or has one negative eigenvalue that
        mow > 0 lifts.
        """
        rank = self.rank[k]
        definite = (cw >= 0) | (rank == 0)
        # a NaN den, 0 * inf past the float range, fails no test: the solve's non-finite X is rejected
        on_range = (~(den < 0) | leaves) & (definite | ((rank == 1) & (mow > 0)))
        return np.where(enters, definite & (mow > 0), on_range | (rank == 0))

    def out_of_range(self, k, cw, mow, row_scale) -> tuple[np.ndarray, np.ndarray]:
        """Which of stage k's solves leave the float range: (rhs, entries), a
        non-finite row scale (..., r) and a non-finite weight or gain matrix
        entry, one flag per weight pair. The entries are bounded by
        |mow| mean_max^2 + |cw| cov_max; mean_max^2 is inf past 1e154, and it
        reaches G only through a nonzero mean weight."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean_term = np.where(mow != 0, abs(mow) * self.mean_max[k] ** 2, 0.0)
            entries = ~np.isfinite(abs(cw) * self.cov_max[k] + mean_term)
        return ~np.isfinite(row_scale).all(axis=-1), entries

    def solve(
        self, k, cov_weight: np.ndarray, mean_weight: np.ndarray, row_scale: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stage k's gain matrices G = mean_weight mu mu^T + cov_weight Sigma, one
        per weight pair (...,), solved for the rows v = row_scale[..., j] mu, (..., r).

        Returns (X (..., r, m), residual (..., r), ok (..., r), psd (...,)): X = G^+ v,
        the residual of v against G's range and ok the range test, with the
        meaning of Eigenbasis.solve, and psd G's PSD test (_is_psd). The rank
        rule (rank_rule) decides, and no G is built: G's rank equal to
        Sigma's, X = v . y / den and v's residual is its kernel part; mu's
        kernel part entering G's range, X = v . kernel / (mean_weight
        kernel_norm^2), solving v exactly; mu leaving G's range, X is zero and
        the residual is dropped_residual's multiple. The caller screens out
        the solves out of the float range (out_of_range): their numbers,
        computed without a warning, are not a failed range test.
        """
        cw, mow, scale = (np.asarray(a, dtype=float) for a in (cov_weight, mean_weight, row_scale))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            den, enters, leaves = self.rank_rule(k, cw, mow)
            psd = self._is_psd(k, cw, mow, den, enters, leaves)
            # scale the right-hand sides first: a subnormal den must not overflow 1 / den
            X = scale[..., None] * self.y[k][..., None, :]
            X /= den[..., None, None]
            mean_residual = np.broadcast_to(self.kernel_norm[k], cw.shape)
            if enters.any() or leaves.any():
                kernel_sq = mow * self.kernel_norm[k] ** 2
                X_kernel = (scale[..., None] * self.kernel[k][..., None, :]) / kernel_sq[..., None, None]
                X = np.where(enters[..., None, None], X_kernel, np.where(leaves[..., None, None], 0.0, X))
                mean_residual = np.where(enters, 0.0, np.where(leaves, self.dropped_residual[k], mean_residual))
            size = np.abs(scale)
            residual = size * mean_residual[..., None]
            return X, residual, _in_range(residual, lambda: size * self.mean_norm[k][..., None]), psd


def gain_eigenvalues(cov: np.ndarray, mean: np.ndarray, cov_weight: np.ndarray, mean_weight: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, m), ascending, of n gain matrices G = mean_weight mu mu^T + cov_weight Sigma.

    cov (n, m, m) and mean (n, m) are each G's Sigma and mu, cov_weight and
    mean_weight (n,) its weights. No solve needs them: they serve the outputs
    that print them and the residual of a failed PSD test. Every G is built
    elementwise and all are decomposed by one stacked eigvalsh.
    """
    cw, mow = np.asarray(cov_weight, dtype=float), np.asarray(mean_weight, dtype=float)
    G = mow[:, None, None] * (mean[:, :, None] * mean[:, None, :]) + cw[:, None, None] * cov
    return np.linalg.eigvalsh(G)


# a solve past the float range comes back non-finite, and the recursion rejects it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def covariance_solve(cov: np.ndarray, mean: np.ndarray) -> CovarianceSolve:
    """Decompose each symmetric Sigma of the stages (N, m, m) once and solve
    Sigma^+ mu for the means (N, m), weight-free.

    One Cholesky factorization per stage certifies it (CovarianceSolve), each
    in its own try, since a stacked call raises for the whole stack; one
    stacked eigh decomposes the stages not certified. The stages of full
    rank, the certified ones and those whose eigendecomposition keeps every
    eigenvalue, then take stacked LU solves of _LU_BLOCK stages each; the
    rank-deficient ones solve through their eigenbasis. Each Sigma is scaled
    by its 2^e first, so a subnormal covariance solves.
    """
    cov, mean = np.asarray(cov, dtype=float), np.asarray(mean, dtype=float)
    n, m = mean.shape
    cov_max = np.maximum(cov.max(axis=(-2, -1)), -cov.min(axis=(-2, -1)))  # no |cov| copy
    e = np.frexp(cov_max)[1]
    certified = np.zeros(n, dtype=bool)
    shifted = np.empty((m, m))
    diagonal = shifted.reshape(-1)[:: m + 1]  # a view
    for k in range(n):
        np.ldexp(cov[k], -e[k], out=shifted)
        diagonal -= 2.0 * DEFAULT_PINV_RTOL * diagonal.sum()
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        certified[k] = True
    uncertified = np.flatnonzero(~certified)
    scaled = cov[uncertified]
    np.ldexp(scaled, -e[uncertified, None, None], out=scaled)
    # every stage certified: no eigh call at all
    eig = eigenbasis(scaled) if len(scaled) else Eigenbasis(np.zeros((0, m)), scaled, np.zeros((0, m), dtype=bool))
    rank, psd, min_eigenvalue, sigma_max = np.full(n, m), np.ones(n, dtype=bool), np.zeros(n), np.zeros(n)
    rank[uncertified] = eig.rank
    # the PSD verdict in the solve's 2^e units, where both extremes are finite:
    # lambda_min / 2^e >= -tol * max(2^-e, lambda_max / 2^e), is_psd_spectrum's rule scaled exactly
    lowest, highest = eig.eigenvalues[:, 0], eig.eigenvalues[:, -1]
    psd[uncertified] = lowest >= -DEFAULT_PSD_TOL * np.maximum(np.ldexp(1.0, -e[uncertified]), highest)
    min_eigenvalue[uncertified] = np.ldexp(lowest, e[uncertified])
    sigma_max[uncertified] = np.ldexp(np.abs(eig.eigenvalues).max(axis=-1, initial=0.0), e[uncertified])
    y, kernel = np.zeros_like(mean), np.zeros_like(mean)
    full = np.flatnonzero(rank == m)
    for start in range(0, full.size, _LU_BLOCK):
        block = full[start : start + _LU_BLOCK]
        scaled = cov[block]
        np.ldexp(scaled, -e[block, None, None], out=scaled)
        y[block] = np.linalg.solve(scaled, mean[block, :, None])[..., 0]
    deficient = eig.rank < m
    if deficient.any():
        stages, sub = uncertified[deficient], eig[deficient]
        y[stages] = sub.solve(mean[stages])[0]
        kernel[stages] = sub.split(mean[stages, None, :])[1][:, 0]
    q = np.einsum("ki,ki->k", mean, y)
    kernel_norm, y_norm, mean_norm = _row_norms(kernel), _row_norms(y), _row_norms(mean)
    # mu's residual against range(Sigma) less the direction y: its kernel part and mu . y / ||y||
    along_y = np.divide(np.abs(q), y_norm, out=np.zeros_like(q), where=y_norm > 0)
    return CovarianceSolve(
        certified=certified,
        psd=psd,
        min_eigenvalue=min_eigenvalue,
        sigma_max=sigma_max,
        rank=rank,
        exponent=e,
        y=y,
        q=q,
        kernel=kernel,
        kernel_norm=kernel_norm,
        mean_norm=mean_norm,
        in_range=_in_range(kernel_norm, lambda: mean_norm),
        dropped_residual=np.hypot(kernel_norm, along_y),
        cov_max=cov_max,
        mean_max=np.abs(mean).max(axis=-1, initial=0.0),
    )
