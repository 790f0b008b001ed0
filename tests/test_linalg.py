"""The eigenbasis least-norm solve, its range tests, the PSD rule and the stage solve through Sigma."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvequil import linalg
from mvequil.linalg import covariance_solve, eigenbasis, gain_eigenvalues, is_psd_spectrum

from instgen import SMALL_SCALES, TINY_SCALES


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


@pytest.mark.parametrize("small, rank", [(2e-10, 1), (2.1e-10, 2)])
def test_one_rank_cutoff_at_its_boundary(monkeypatch, small, rank):
    # the cutoff is 1e-10 times the largest magnitude, exactly 2e-10 here, and
    # an eigenvalue counts only above it: eigenbasis and the stage solves
    # before the recursion apply that rule; the gain matrix at mow = 0 keeps
    # their rank by the closed-form rank rule, without a cutoff of its own
    cov, mean = np.diag([2.0, small]), np.array([1.0, 1.0])
    stages = covariance_solve(cov[None], mean[None])
    assert eigenbasis(cov).rank == stages.rank[0] == rank
    solve_ranks, kept = [], linalg._kept
    monkeypatch.setattr(linalg, "_kept", lambda w: solve_ranks.append(np.count_nonzero(kept(w))) or kept(w))
    _, residual, ok, _ = stages.solve(0, np.array([1.0]), np.array([0.0]), np.ones((1, 3)))
    assert solve_ranks == []
    # the mean's second coordinate lies in the range, or in the kernel, by the same cutoff
    assert ok[0, 0] == (rank == 2) and residual[0, 0] == (0.0 if rank == 2 else 1.0)


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


def test_stacked_solve_matches_each_matrix():
    # one eigh for a stack mixing full-rank, rank-deficient, zero and indefinite matrices
    rng = np.random.default_rng(3)
    n = 4
    full, _ = random_spd_spectrum(rng, n, zero_frac=0.0)
    deficient, _ = random_spd_spectrum(rng, n, zero_frac=0.6)
    indefinite = full - 5.0 * np.eye(n)
    stack = np.stack([full, deficient, np.zeros((n, n)), indefinite, np.diag([1e-310, 2e-310, 0.0, 1.0])])
    V = rng.standard_normal((len(stack), 3, n))
    V[:, 0] = np.einsum("dij,dj->di", stack, rng.standard_normal((len(stack), n)))  # in range
    stacked = eigenbasis(stack)
    assert stacked.eigenvalues.shape == (len(stack), n) and stacked.keep.shape == (len(stack), n)
    for rows in (V, V[:, 1]):  # r rows per matrix, and one row per matrix
        X, residual, ok = stacked.solve(rows)
        for d, M in enumerate(stack):
            single = eigenbasis(M)
            assert np.array_equal(single.eigenvalues, stacked.eigenvalues[d]) and single.rank == stacked.rank[d]
            x_d, residual_d, ok_d = single.solve(rows[d])
            scale = max(float(np.abs(x_d).max()), np.finfo(float).tiny)
            assert np.abs(X[d] - x_d).max() <= 1e-12 * scale
            assert np.array_equal(residual[d], residual_d) and np.array_equal(ok[d], ok_d)
    assert stacked.rank[2] == 0 and stacked.eigenvalues[3, 0] < 0  # the zero matrix; the indefinite one
    bad = stack.copy()
    bad[3, 0, 1] = bad[3, 1, 0] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        eigenbasis(bad)


def _solve_both(cov, mean, cw, mow, scale):
    """The covariance solve, its stage solve, and the eigenbasis and its solve of each G it stands for."""
    stages = covariance_solve(cov[None], mean[None])
    G = mow[:, None, None] * np.outer(mean, mean) + cw[:, None, None] * cov
    return stages, stages.solve(0, cw, mow, scale), eigenbasis(G), eigenbasis(G).solve(scale[..., None] * mean)


@given(st.integers(0, 10**6), st.integers(1, 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_covariance_solve_matches_the_gain_matrix_eigenbasis(seed, n, in_range):
    # G = mow mu mu^T + cw Sigma for rank-deficient and full-rank Sigma, mu in
    # or out of its range, either sign of each weight and a zero mean weight
    rng = np.random.default_rng(seed)
    cov, _ = random_spd_spectrum(rng, n)
    mean = cov @ rng.standard_normal(n) if in_range else rng.standard_normal(n)
    cw = rng.choice([-1.0, 1.0], size=4) * rng.uniform(0.1, 2.0, size=4)
    mow = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, size=3)]) * (rng.random() < 0.7)  # all zero 3 times in 10
    scale = rng.standard_normal((4, 3))
    scale[0, 1] = 0.0
    stages, (X, residual, ok, psd), eig, (X_ref, residual_ref, ok_ref) = _solve_both(cov, mean, cw, mow, scale)
    w = gain_eigenvalues(np.repeat(cov[None], len(cw), axis=0), np.repeat(mean[None], len(cw), axis=0), cw, mow)
    radius = np.abs(eig.eigenvalues).max(axis=-1, keepdims=True)
    assert np.all(np.abs(w - eig.eigenvalues) <= 1e-12 * np.maximum(radius, 1.0))
    assert np.array_equal(psd, is_psd_spectrum(eig.eigenvalues))
    assert np.array_equal(ok, ok_ref)
    assert np.allclose(X[ok], X_ref[ok], rtol=1e-7, atol=1e-9)
    assert np.allclose(residual, residual_ref, rtol=1e-6, atol=1e-9)


def test_covariance_solve_when_mu_leaves_the_gain_matrix_range():
    # mow = -cw / q makes G singular along Sigma^+ mu, which mu is not orthogonal to
    rng = np.random.default_rng(7)
    cov, _ = random_spd_spectrum(rng, 4, zero_frac=0.0)
    mean = rng.standard_normal(4)
    q = mean @ np.linalg.solve(cov, mean)
    cw, mow = np.array([1.0, 1.0]), np.array([-1.0 / q, 0.5])
    scale = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
    _, (X, residual, ok, _), eig, (_, residual_ref, ok_ref) = _solve_both(cov, mean, cw, mow, scale)
    assert eig.rank.tolist() == [3, 4]
    assert ok.tolist() == ok_ref.tolist() == [[False, True, False], [True, True, True]]
    assert np.allclose(residual, residual_ref, rtol=1e-6)
    assert np.array_equal(X[0], np.zeros((3, 4)))


def _conditioned_market(rng, m, rank, cond, in_range):
    """Sigma of the given rank with kept eigenvalues from 1 down to 1 / cond, and
    mu in its range or with a kernel part as large as its range part."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sigma = np.zeros(m)
    sigma[:rank] = np.geomspace(1.0, 1.0 / cond, rank)
    cov = (Q * sigma) @ Q.T
    mean = Q[:, :rank] @ rng.standard_normal(rank)
    if not in_range:
        mean += 0.5 * Q[:, rank:] @ rng.standard_normal(m - rank)
    return 0.5 * (cov + cov.T), mean


def test_rank_rule_agrees_with_the_gain_matrix_spectrum_as_den_vanishes():
    # mow = -cw 2^e / q (1 + delta) drives den = cw 2^e + mow q to -delta cw 2^e.
    # To first order, the eigenvalue of G that vanishes with den is den q / ||y||^2,
    # and q / ||y||^2 lies between Sigma's smallest and largest kept eigenvalue
    # (over 2^e). So the closed-form rules, which read den against
    # |cw| 2^e + |mow| q, and the cutoff and PSD slack on eigvalsh(G) may
    # disagree only inside the band RTOL / 10 <= that ratio <= 10 cond RTOL,
    # cond being Sigma's condition number on its range. Outside it they agree.
    rtol = linalg.DEFAULT_PINV_RTOL
    deltas = np.array([0.0] + [sign * 10.0**-p for p in range(2, 15, 2) for sign in (1, -1)])
    outside = entered = left = indefinite = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 9))
        for rank, in_range, cond in [
            (r, inside, c) for r in (m, m - 2) for inside in {True, r == m} for c in (1.0, 1e3, 1e6)
        ]:
            cov, mean = _conditioned_market(rng, m, rank, cond, in_range)
            stages = covariance_solve(cov[None], mean[None])
            for sign in (1.0, -1.0):  # mow negative, then positive
                cw = np.full(len(deltas), sign * rng.uniform(0.5, 2.0))
                mow = -np.ldexp(cw, stages.exponent[0]) / stages.q[0] * (1.0 + deltas)
                den, enters, leaves = stages.rank_rule(0, cw, mow)
                G = mow[:, None, None] * np.outer(mean, mean) + cw[:, None, None] * cov
                w = np.linalg.eigvalsh(G)
                spread = np.ldexp(np.abs(cw), stages.exponent[0]) + np.abs(mow) * stages.q[0]
                ratio = np.abs(den) / spread
                clear = (ratio < rtol / 10) | (ratio > 10 * cond * rtol)
                rank_rule = stages.rank[0] + enters.astype(int) - leaves
                psd_rule = stages.solve(0, cw, mow, np.ones((len(cw), 1)))[-1]
                assert np.array_equal(rank_rule[clear], np.count_nonzero(linalg._kept(w), axis=-1)[clear])
                assert np.array_equal(psd_rule[clear], is_psd_spectrum(w)[clear])
                outside += clear.sum()
                entered += (clear & enters).sum()
                left += (clear & leaves).sum()
                indefinite += (clear & ~psd_rule).sum()
    # the agreement covers most cases, rank changes both ways and failed PSD tests
    assert outside > 12 * 9 * 2 * len(deltas) / 2 and min(entered, left, indefinite) > 300


def test_out_of_range_flags_non_finite_weights():
    # (rhs, entries) for each weight; the recursion screens the flagged solves out, which warn of nothing
    stages = covariance_solve(np.eye(2)[None], np.array([[0.1, 0.2]]))
    cw, mow, scale, inf = np.array([1.0]), np.array([0.5]), np.ones((1, 3)), np.array([np.inf])
    cases = [
        ((cw, mow, scale), (False, False)),
        ((inf, mow, scale), (False, True)),
        ((cw, np.array([np.nan]), scale), (False, True)),
        ((cw, mow, np.full((1, 3), np.inf)), (True, False)),
        ((inf, np.array([0.0]), scale), (False, True)),
    ]
    for args, flags in cases:
        assert tuple(flag.item() for flag in stages.out_of_range(0, *args)) == flags
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stages.solve(0, *args)


# lambda_min / lambda_max below, at and above the cutoff of 1e-10, and at 1e-9,
# the only ratio the certificate's shift of 2e-10 tr, about 3e-10 lambda_max, clears
CUTOFF_RATIOS = (5e-11, 1e-10 * (1 - 1e-6), 1e-10 * (1 + 1e-6), 2e-10, 1e-9)


@pytest.mark.parametrize("scale", (1e-300, 1.0, 1e150) + SMALL_SCALES + TINY_SCALES)
def test_cholesky_certificate_agrees_with_the_eigenvalue_cutoff(monkeypatch, scale):
    # diagonal stages, in two orders, so every eigenvalue is exact; the mean
    # lies in the range of the two large eigenvalues, or also has a part
    # along the small one
    spectra = [np.array([1.0, 0.5, ratio])[list(order)] for ratio in CUTOFF_RATIOS for order in ([0, 1, 2], [2, 0, 1])]
    spectra += [np.array([1.0, 2.0, 1.5]) * 1e-3]  # a covariance of small_scale_market's kind
    cov = np.array([np.diag(w) for w in spectra for _ in range(2)]) * scale
    mean = np.array([np.where(w == w.min(), along, 1.0) * [0.3, -0.2, 0.1] for w in spectra for along in (0.0, 1.0)])
    fast = covariance_solve(cov, mean)
    ratios = np.array([w.min() / w.max() for w in spectra]).repeat(2)
    assert np.array_equal(fast.certified, ratios >= 1e-9)
    # the eigenvalue-cutoff path: no stage certified, each solved through its eigh
    def no_certificate(a):
        raise np.linalg.LinAlgError("not certified")

    monkeypatch.setattr(np.linalg, "cholesky", no_certificate)
    slow = covariance_solve(cov, mean)
    assert not slow.certified.any()
    assert np.array_equal(fast.rank, np.count_nonzero(linalg._kept(np.linalg.eigvalsh(cov)), axis=-1))
    assert np.array_equal(fast.rank, slow.rank) and np.array_equal(fast.rank == 3, ratios > 1e-10)
    for name in ("y", "q", "kernel", "kernel_norm", "in_range", "dropped_residual"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    assert np.array_equal(fast.in_range, [eigenbasis(c).solve(mu)[2] for c, mu in zip(cov, mean)])
    # every stage solve's outcome, for weights of either sign, a zero mean
    # weight and the mean weight at which mu leaves G's range
    cw = np.array([1.0, -1.0, 0.5, 2.0])
    row_scale = np.array([[1.0, 0.3, -2.0]] * len(cw))
    for k in range(len(cov)):
        mow = np.array([0.0, 0.7, -0.3, -np.ldexp(2.0, fast.exponent[k]) / fast.q[k]])
        for got, want in zip(fast.solve(k, cw, mow, row_scale), slow.solve(k, cw, mow, row_scale)):
            assert np.array_equal(got, want, equal_nan=True), k
