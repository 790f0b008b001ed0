"""Pseudoinverse, range membership and PSD primitives.

Every backward recursion in this package solves stage equations of the form
``G u = -target`` where G is symmetric (usually PSD, possibly singular). The
helpers here centralize the tolerance semantics of those solves. One
eigendecomposition serves all three: ``pseudoinverse`` keeps the eigenvalues
it computes, and ``range_membership`` and ``is_psd`` accept its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PINV_RTOL = 1e-10
DEFAULT_RANGE_RTOL = 1e-8
DEFAULT_PSD_TOL = 1e-10
_SYM_RTOL = 1e-8


@dataclass(frozen=True)
class PinvResult:
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    rank is the count of eigenvalues whose magnitude exceeds cutoff, cutoff
    is the absolute threshold actually applied (rel_tol * spectral radius),
    and eigenvalues are all eigenvalues of the matrix in ascending order.
    """

    pinv: np.ndarray
    rank: int
    cutoff: float
    eigenvalues: np.ndarray


def _norm(a: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a, taken of a scaled by a power of two so
    the sum of squares cannot overflow; dividing by a power of two is exact."""
    big = float(np.abs(a).max(initial=0.0))
    if not 0.0 < big < math.inf:
        return big  # zero, or a non-finite entry
    scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
    scaled = a / scale
    return scale * math.sqrt(float(np.vdot(scaled, scaled)))


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


def pseudoinverse(M: np.ndarray, rel_tol: float = DEFAULT_PINV_RTOL) -> PinvResult:
    """Pseudoinverse of a symmetric matrix via eigendecomposition.

    Eigenvalues with magnitude below rel_tol times the spectral radius are
    treated as zero. The result is exactly symmetric.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    M = _require_symmetric(M, "pseudoinverse")
    w, Q = np.linalg.eigh(M)
    cutoff = rel_tol * float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) > cutoff
    inv_w = np.zeros_like(w)
    inv_w[keep] = 1.0 / w[keep]
    P = (Q * inv_w) @ Q.T
    return PinvResult(
        pinv=0.5 * (P + P.T), rank=int(np.count_nonzero(keep)), cutoff=cutoff, eigenvalues=w
    )


def range_membership(
    v: np.ndarray,
    M: np.ndarray,
    rel_tol: float = DEFAULT_RANGE_RTOL,
    pinv: PinvResult | None = None,
) -> tuple[bool, float]:
    """Whether v lies in the column space of symmetric M, with the residual.

    Returns (ok, residual) where residual = ||M M^+ v - v|| and ok means
    residual <= rel_tol * max(1, ||v||); a non-finite residual never passes.
    pinv, when given, is M's pseudoinverse and saves decomposing M again.
    """
    v = np.asarray(v, dtype=float)
    if pinv is None:
        pinv = pseudoinverse(M)
    residual = _norm(M @ (pinv.pinv @ v) - v)
    # residual <= rel_tol * max(1, ||v||); ||v|| is only needed past rel_tol
    ok = math.isfinite(residual) and (residual <= rel_tol or residual <= rel_tol * _norm(v))
    return ok, residual


def is_psd(M: np.ndarray, tol: float = DEFAULT_PSD_TOL, pinv: PinvResult | None = None) -> bool:
    """Whether symmetric M is positive semidefinite within a relative slack.

    Passes iff lambda_min >= -tol * max(1, lambda_max). pinv, when given, is
    M's pseudoinverse, whose eigenvalues are used instead of decomposing M.
    """
    if pinv is None:
        w = np.linalg.eigvalsh(_require_symmetric(M, "is_psd"))
    else:
        w = pinv.eigenvalues
    return bool(w[0] >= -tol * max(1.0, float(w[-1])))
