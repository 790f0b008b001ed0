"""Eigendecomposition pseudoinverse, range tests, PSD checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvequil.linalg import is_psd, pseudoinverse, range_membership


def random_spd_spectrum(rng, n, zero_frac=0.4):
    """Symmetric matrix with eigenvalues either exactly 0 or in [0.1, 10]."""
    w = rng.uniform(0.1, 10.0, size=n)
    w[rng.random(n) < zero_frac] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(w) @ Q.T, w


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_pseudoinverse_involution(seed, n):
    rng = np.random.default_rng(seed)
    M, _ = random_spd_spectrum(rng, n)
    back = pseudoinverse(pseudoinverse(M).pinv).pinv
    assert np.linalg.norm(back - M) <= 1e-8 * max(1.0, np.linalg.norm(M))


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_pseudoinverse_penrose_identities(seed, n):
    rng = np.random.default_rng(seed)
    M, w = random_spd_spectrum(rng, n)
    res = pseudoinverse(M)
    P = res.pinv
    assert res.rank == int(np.count_nonzero(w))
    assert np.allclose(M @ P @ M, M, atol=1e-9)
    assert np.allclose(P @ M @ P, P, atol=1e-9)
    assert np.allclose(P, P.T, atol=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_range_membership_of_image_vectors(seed, n):
    rng = np.random.default_rng(seed)
    M, _ = random_spd_spectrum(rng, n)
    z = rng.standard_normal(n)
    ok, residual = range_membership(M @ z, M)
    assert ok
    assert residual <= 1e-8 * max(1.0, np.linalg.norm(M @ z))


@given(st.integers(0, 10**6), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_range_membership_rejects_kernel_component(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, size=n)
    w[0] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = Q @ np.diag(w) @ Q.T
    v = M @ rng.standard_normal(n) + Q[:, 0]  # unit kernel component
    ok, residual = range_membership(v, M)
    assert not ok
    assert residual > 0.5


def test_rank_one_diagonal_pseudoinverse_is_exact():
    res = pseudoinverse(np.diag([2.0, 0.0]))
    assert np.array_equal(res.pinv, np.diag([0.5, 0.0]))
    assert res.rank == 1


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_checks_reuse_the_pseudoinverse_decomposition(seed, n):
    # one decomposition serves the range and PSD checks with unchanged answers
    rng = np.random.default_rng(seed)
    M, _ = random_spd_spectrum(rng, n)
    M = M - rng.uniform(0.0, 1.0) * np.eye(n) * (rng.random() < 0.5)  # sometimes indefinite
    res = pseudoinverse(M)
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(M), atol=1e-12)
    assert is_psd(M, pinv=res) == is_psd(M)
    for v in (M @ rng.standard_normal(n), rng.standard_normal(n)):
        assert range_membership(v, M, pinv=res) == range_membership(v, M)


def test_is_psd_examples():
    assert is_psd(np.diag([1.0, 0.0]))
    assert is_psd(np.zeros((3, 3)))
    assert is_psd(np.diag([1.0, -1e-12]))  # inside tolerance
    assert not is_psd(np.diag([1.0, -1e-6]))


def test_asymmetric_input_raises():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        pseudoinverse(M)
    with pytest.raises(np.linalg.LinAlgError):
        is_psd(M)
    with pytest.raises(np.linalg.LinAlgError):
        range_membership(np.ones(2), M)


def test_nonfinite_input_raises():
    M = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        pseudoinverse(M)


def test_tiny_asymmetry_is_symmetrized():
    M = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
    res = pseudoinverse(M)
    assert np.allclose(res.pinv @ M, np.eye(2), atol=1e-9)


def test_huge_entries_do_not_pass_checks_vacuously():
    # squaring entries near 1e160 overflows, which once made each tolerance inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert range_membership(np.array([1e160, 2e160, 3e160]), np.diag([1.0, 1.0, 0.0])) == (False, 3e160)
        with pytest.raises(np.linalg.LinAlgError, match="not symmetric"):
            pseudoinverse(np.array([[1e200, 1e200], [0.0, 1e200]]))
        assert range_membership(np.array([1e200, 0.0]), np.diag([1e200, 0.0])) == (True, 0.0)
