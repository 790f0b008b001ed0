"""One eigendecomposition per symmetric matrix, and the rules stated on it.

Every backward recursion in this package solves stage equations of the form
``G u = -target`` where G is symmetric (usually PSD, possibly singular), and
existence is a range condition on G. ``eigenbasis`` decomposes G once and
keeps what every rule needs: all eigenvalues, which the PSD test
(``is_psd_spectrum``) reads, and all eigenvectors with a mask of those above
the cutoff, through which ``Eigenbasis.solve`` returns the least-norm
solutions of a stack of right-hand sides together with their range
residuals. The m x m matrix G^+ is never formed: inverting every kept
eigenvalue overflows once they are subnormal, while the solve divides each
right-hand side's coordinates directly. The same cutoff, relative to the
largest eigenvalue, sets the covariance ranks of the oracle's tree and
Monte Carlo.

Everything works on a stack of matrices (..., m, m) as well as on one: a
stack is decomposed by one ``eigh`` call and solved by one batched product,
and every rule applies to each matrix of the stack on its own. A single
matrix is the case ``... = ()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the rank cutoff and the range and PSD tolerances of the whole package; only
# the oracle's convexity test passes its own PSD slack
DEFAULT_PINV_RTOL = 1e-10
DEFAULT_RANGE_RTOL = 1e-8
DEFAULT_PSD_TOL = 1e-10
_SYM_RTOL = 1e-8


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
    marks the eigenvalues whose magnitude exceeds cutoff (...), the absolute
    threshold applied: rel_tol times M's spectral radius.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    keep: np.ndarray
    cutoff: np.ndarray

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
        keep = self.keep[..., None, :]
        Q, Qt = self.vectors, self.vectors.swapaxes(-1, -2)
        coords = np.where(keep, V @ Q, 0.0)
        residual = _row_norms(V - coords @ Qt)
        # residual <= tol * max(1, ||v||); ||v|| is only needed past tol
        ok = residual <= DEFAULT_RANGE_RTOL
        if not ok.all():
            ok |= np.isfinite(residual) & (residual <= DEFAULT_RANGE_RTOL * _row_norms(V))
        with np.errstate(over="ignore", invalid="ignore"):
            X = (coords / np.where(keep, self.eigenvalues[..., None, :], 1.0)) @ Qt
        if one_row:
            return X[..., 0, :], residual[..., 0], ok[..., 0]
        return X, residual, ok


def eigenbasis(M: np.ndarray, rel_tol: float = DEFAULT_PINV_RTOL) -> Eigenbasis:
    """Decompose symmetric M, or a stack (..., m, m), with one eigh call;
    eigenvalues with magnitude at most rel_tol times their matrix's spectral
    radius count as zero."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    M = _require_symmetric(M, "eigenbasis")
    w, Q = np.linalg.eigh(M)
    magnitude = np.abs(w)
    cutoff = rel_tol * magnitude.max(axis=-1, initial=0.0)
    keep = magnitude > cutoff[..., None]
    return Eigenbasis(eigenvalues=w, vectors=Q, keep=keep, cutoff=cutoff)
