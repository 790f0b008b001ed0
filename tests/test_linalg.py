"""The eigenbasis least-norm solve, its range tests and the PSD rule."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvequil.linalg import eigenbasis, is_psd_spectrum


def random_spd_spectrum(rng, n, zero_frac=0.4):
    """Symmetric matrix with eigenvalues either exactly 0 or in [0.1, 10]."""
    w = rng.uniform(0.1, 10.0, size=n)
    w[rng.random(n) < zero_frac] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(w) @ Q.T, w


def pinv_by_solve(M):
    """M^+ as the least-norm solutions for the rows of the identity (M is symmetric)."""
    return eigenbasis(M).solve(np.eye(len(M)))[0]


def reference_pinv(M):
    return np.linalg.pinv(M, rcond=1e-10)


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_pseudoinverse_involution(seed, n):
    rng = np.random.default_rng(seed)
    M, _ = random_spd_spectrum(rng, n)
    back = pinv_by_solve(pinv_by_solve(M))
    assert np.linalg.norm(back - M) <= 1e-8 * max(1.0, np.linalg.norm(M))


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_pseudoinverse_penrose_identities(seed, n):
    rng = np.random.default_rng(seed)
    M, w = random_spd_spectrum(rng, n)
    assert eigenbasis(M).rank == int(np.count_nonzero(w))
    P = pinv_by_solve(M)
    assert np.allclose(M @ P @ M, M, atol=1e-9)
    assert np.allclose(P @ M @ P, P, atol=1e-9)
    assert np.allclose(P, P.T, atol=1e-12)
    V = rng.standard_normal((3, n))
    X, _, _ = eigenbasis(M).solve(V)
    assert np.allclose(X, V @ reference_pinv(M).T, atol=1e-9)


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_range_membership_of_image_vectors(seed, n):
    rng = np.random.default_rng(seed)
    M, _ = random_spd_spectrum(rng, n)
    v = M @ rng.standard_normal(n)
    X, residual, ok = eigenbasis(M).solve(v)
    assert ok
    assert residual <= 1e-8 * max(1.0, np.linalg.norm(v))
    assert np.allclose(M @ X, v, atol=1e-9)
    assert np.allclose(X, reference_pinv(M) @ v, atol=1e-9)


@given(st.integers(0, 10**6), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_range_membership_rejects_kernel_component(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, size=n)
    w[0] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = Q @ np.diag(w) @ Q.T
    v = M @ rng.standard_normal(n) + Q[:, 0]  # unit kernel component
    X, residual, ok = eigenbasis(M).solve(v)
    assert not ok
    assert residual > 0.5
    assert np.allclose(X, reference_pinv(M) @ v, atol=1e-9)  # still the least-norm fit


def test_rank_one_diagonal_pseudoinverse_is_exact():
    eig = eigenbasis(np.diag([2.0, 0.0]))
    assert np.array_equal(pinv_by_solve(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert eig.rank == 1
    assert eig.cutoff == 2e-10


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_checks_reuse_the_pseudoinverse_decomposition(seed, n):
    # one decomposition serves the PSD rule and a stack of solves with unchanged answers
    rng = np.random.default_rng(seed)
    M, _ = random_spd_spectrum(rng, n)
    M = M - rng.uniform(0.0, 1.0) * np.eye(n) * (rng.random() < 0.5)  # sometimes indefinite
    eig = eigenbasis(M)
    assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(M), atol=1e-12)
    assert is_psd_spectrum(eig.eigenvalues) == is_psd_spectrum(np.linalg.eigvalsh(M))
    V = np.stack([M @ rng.standard_normal(n), rng.standard_normal(n)])
    X, residual, ok = eig.solve(V)
    assert np.allclose(X, V @ reference_pinv(M).T, atol=1e-8)
    for i, v in enumerate(V):
        x_i, residual_i, ok_i = eigenbasis(M).solve(v)
        assert np.allclose(x_i, X[i], rtol=1e-12, atol=1e-12) and ok_i == ok[i]
        assert residual_i == pytest.approx(residual[i], rel=1e-9, abs=1e-12)


def test_is_psd_examples():
    assert is_psd_spectrum(np.linalg.eigvalsh(np.diag([1.0, 0.0])))
    assert is_psd_spectrum(np.linalg.eigvalsh(np.zeros((3, 3))))
    assert is_psd_spectrum(np.array([-1e-12, 1.0]))  # inside tolerance
    assert not is_psd_spectrum(np.array([-1e-6, 1.0]))
    assert is_psd_spectrum(np.array([-1e-6, 1e5]))  # the slack scales with lambda_max past 1


def test_asymmetric_input_raises():
    with pytest.raises(np.linalg.LinAlgError, match="not symmetric"):
        eigenbasis(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nonfinite_input_raises():
    M = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        eigenbasis(M)


def test_tiny_asymmetry_is_symmetrized():
    M = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
    X, _, ok = eigenbasis(M).solve(M)
    assert ok.all()
    assert np.allclose(X, np.eye(2), atol=1e-9)


def test_subnormal_eigenvalues_solve_finitely():
    # inverting each eigenvalue near 1e-310 overflows; dividing the coordinates does not
    M = np.diag([1e-310, 2e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eig = eigenbasis(M)
        X, residual, ok = eig.solve(np.array([[-0.015, -0.005], [0.0, 0.0]]))
    assert eig.rank == 2
    assert np.all(np.isfinite(X)) and ok.all() and np.all(residual == 0.0)
    assert np.allclose(X[0], [-1.5e308, -2.5e307], rtol=1e-12)
    assert np.array_equal(X[1], [0.0, 0.0])


def test_huge_entries_do_not_pass_checks_vacuously():
    # squaring entries near 1e160 overflows, which once made each tolerance inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, residual, ok = eigenbasis(np.diag([1.0, 1.0, 0.0])).solve(np.array([1e160, 2e160, 3e160]))
        assert (ok, residual) == (False, 3e160)
        with pytest.raises(np.linalg.LinAlgError, match="not symmetric"):
            eigenbasis(np.array([[1e200, 1e200], [0.0, 1e200]]))
        _, residual, ok = eigenbasis(np.diag([1e200, 0.0])).solve(np.array([1e200, 0.0]))
        assert (ok, residual) == (True, 0.0)
