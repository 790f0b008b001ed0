"""One eigendecomposition per symmetric matrix, and the rules stated on it.

Every backward recursion in this package solves stage equations of the form
``G u = -target`` where G is symmetric (usually PSD, possibly singular), and
existence is a range condition on G. ``eigenbasis`` decomposes G once and
keeps what every rule needs: all eigenvalues, which the PSD test
(``is_psd_spectrum``) reads, and the eigenvectors above the cutoff, through
which ``Eigenbasis.solve`` returns the least-norm solutions of a stack of
right-hand sides together with their range residuals. The m x m matrix G^+
is never formed: inverting every kept eigenvalue overflows once they are
subnormal, while the solve divides each right-hand side's coordinates
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PINV_RTOL = 1e-10
DEFAULT_RANGE_RTOL = 1e-8
DEFAULT_PSD_TOL = 1e-10
_SYM_RTOL = 1e-8


def _norm(a: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a, taken of a scaled by a power of two so
    the sum of squares cannot overflow; dividing by a power of two is exact."""
    big = float(np.abs(a).max(initial=0.0))
    if not 0.0 < big < math.inf:
        return big  # zero, or a non-finite entry
    scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
    scaled = a / scale
    return scale * math.sqrt(float(np.vdot(scaled, scaled)))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """_norm of each row (along the last axis) in one vectorized pass, each row
    scaled by its own power of two; a row with a non-finite entry has a
    non-finite norm."""
    big = np.abs(rows).max(axis=-1, keepdims=True, initial=0.0)
    scale = np.ldexp(1.0, np.frexp(big)[1] - 1)
    scaled = rows / scale
    return scale[..., 0] * np.sqrt(np.einsum("...i,...i->...", scaled, scaled))


def _require_symmetric(M: np.ndarray, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise np.linalg.LinAlgError(f"{what}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise np.linalg.LinAlgError(f"{what}: matrix has non-finite entries")
    # asymmetry > _SYM_RTOL * max(1, ||M||); ||M|| is only needed past _SYM_RTOL
    asymmetry = _norm(M - M.T)
    if asymmetry > _SYM_RTOL and asymmetry > _SYM_RTOL * _norm(M):
        raise np.linalg.LinAlgError(f"{what}: matrix is not symmetric")
    # exact symmetry for eigh; asymmetry beyond tolerance was rejected above
    return 0.5 * (M + M.T)


def is_psd_spectrum(eigenvalues: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether ascending eigenvalues are PSD within a relative slack:
    lambda_min >= -tol * max(1, lambda_max)."""
    return bool(eigenvalues[0] >= -tol * max(1.0, float(eigenvalues[-1])))


@dataclass(frozen=True)
class Eigenbasis:
    """A symmetric matrix M through its eigendecomposition.

    eigenvalues are all of M's eigenvalues in ascending order; basis (m, rank)
    holds the eigenvectors whose eigenvalue exceeds cutoff in magnitude, and
    kept those eigenvalues. cutoff is the absolute threshold applied,
    rel_tol times the spectral radius.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    kept: np.ndarray
    cutoff: float

    @property
    def rank(self) -> int:
        return self.kept.size

    def solve(
        self, V: np.ndarray, rel_tol: float = DEFAULT_RANGE_RTOL
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Least-norm solutions X = M^+ v for the rows v of V, with range tests.

        Returns (X, residual, ok), one entry per row: residual = ||v - B B^T v||
        for B the kept basis, and ok means residual <= rel_tol * max(1, ||v||);
        a non-finite residual never passes. A solution too large for a float
        comes back non-finite without a warning; residual and ok do not depend
        on X.
        """
        V = np.asarray(V, dtype=float)
        coords = V @ self.basis
        residual = _row_norms(V - coords @ self.basis.T)
        # residual <= rel_tol * max(1, ||v||); ||v|| is only needed past rel_tol
        ok = residual <= rel_tol
        if not ok.all():
            ok |= np.isfinite(residual) & (residual <= rel_tol * _row_norms(V))
        with np.errstate(over="ignore", invalid="ignore"):
            X = (coords / self.kept) @ self.basis.T
        return X, residual, ok


def eigenbasis(M: np.ndarray, rel_tol: float = DEFAULT_PINV_RTOL) -> Eigenbasis:
    """Decompose symmetric M with one eigh; eigenvalues with magnitude at most
    rel_tol times the spectral radius count as zero."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    M = _require_symmetric(M, "eigenbasis")
    w, Q = np.linalg.eigh(M)
    cutoff = rel_tol * max(-float(w[0]), float(w[-1])) if w.size else 0.0
    keep = np.abs(w) > cutoff
    return Eigenbasis(eigenvalues=w, basis=Q[:, keep], kept=w[keep], cutoff=cutoff)
