"""Open-loop equilibrium control solver."""

import numpy as np
import pytest

import mvequil as mv
from mvequil import FailingCondition, NonexistenceReport

from instgen import random_market

PRESET = "li-duan-example-2"

EXPECTED_GAINS = np.array(
    [
        [0.1391, 0.2257, 0.8038],
        [0.1842, 0.2988, 1.0643],
        [0.2676, 0.4341, 1.5461],
        [0.4739, 0.7689, 2.7381],
    ]
)


@pytest.fixture(scope="module")
def preset_solution():
    spec = mv.get_preset(PRESET)
    return spec, mv.solve_open_loop(spec)


def test_golden_table(preset_solution):
    _, sol = preset_solution
    assert np.max(np.abs(sol.policy.gains - EXPECTED_GAINS)) < 5e-4
    assert np.max(np.abs(sol.policy.offsets - EXPECTED_GAINS)) < 5e-4


def test_gain_equals_offset_when_mu1_equals_mu2(preset_solution):
    _, sol = preset_solution
    # identical right-hand sides make the two solves bitwise identical
    assert np.array_equal(sol.policy.gains, sol.policy.offsets)


def test_offsets_scale_with_mu2():
    spec = mv.get_preset(PRESET)
    doubled = mv.make_market_spec(
        horizon=spec.horizon,
        num_assets=spec.num_assets,
        riskless=spec.riskless,
        mean_returns=spec.mean_returns,
        return_cov=spec.return_cov,
        mu1=spec.mu1,
        mu2=2.0 * spec.mu2,
    )
    base = mv.solve_open_loop(spec)
    scaled = mv.solve_open_loop(doubled)
    assert np.allclose(scaled.policy.offsets, 2.0 * base.policy.offsets, atol=1e-12)
    assert np.allclose(scaled.policy.gains, base.policy.gains, atol=1e-12)


def test_terminal_stage_closed_form():
    for seed in range(8):
        spec = random_market(seed)
        moments = mv.derive_excess_moments(spec)
        sol = mv.solve_open_loop(spec, moments)
        k = spec.horizon - 1
        cov_pinv = np.linalg.pinv(moments.cov_excess[k], rcond=1e-10)
        expected = 0.5 * spec.mu1 * (cov_pinv @ moments.mean_excess[k])
        assert np.allclose(sol.policy.gain(k), expected, atol=1e-12)


def test_zero_excess_returns_zero_policy():
    spec = mv.make_market_spec(
        horizon=3,
        num_assets=2,
        riskless=1.05,
        mean_returns=[1.05, 1.05],
        return_cov=[[0.02, 0.0], [0.0, 0.03]],
        mu1=1.0,
        mu2=1.5,
    )
    sol = mv.solve_open_loop(spec)
    assert np.array_equal(sol.policy.gains, np.zeros((3, 2)))
    assert np.array_equal(sol.policy.offsets, np.zeros((3, 2)))
    assert np.allclose(sol.trace.cov_weight, 1.05 ** (2 * np.arange(4)[::-1]))


def test_nonexistence_on_mean_outside_covariance_range():
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.0,
        mean_returns=[1.0, 1.1],
        return_cov=[[1.0, 0.0], [0.0, 0.0]],
        mu1=1.0,
        mu2=1.0,
    )
    report = mv.solve_open_loop(spec)
    assert isinstance(report, NonexistenceReport)
    assert report.failing_stage == 1  # backward recursion reaches the last stage first
    assert report.failing_condition is FailingCondition.RANGE_CONDITION
    assert report.residual == pytest.approx(0.1, rel=1e-6)
    assert "stage 1" in report.describe()


@pytest.mark.parametrize(
    "solve",
    [mv.solve_open_loop, lambda spec: mv.solve_mixed(spec, mv.zero_pure_feedback(2, 2))],
    ids=["open-loop", "zero-part-mixed"],
)
def test_subnormal_covariance_gives_finite_gains(solve):
    # inverting the eigenvalues near 1e-310 would overflow; the eigenbasis solve does not
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.02,
        mean_returns=[1.05, 1.03],
        return_cov=[[1e-310, 0], [0, 2e-310]],
        mu1=1,
        mu2=1,
    )
    sol = solve(spec)
    assert not isinstance(sol, NonexistenceReport)
    assert np.all(np.isfinite(sol.policy.gains)) and np.all(np.isfinite(sol.policy.offsets))
    # last stage: the closed form 0.5 * mu1 * Sigma^+ mu
    assert np.allclose(sol.policy.gain(1), [1.5e308, 2.5e307], rtol=1e-12)


def test_cov_weight_positive_on_random_instances():
    for seed in range(25):
        spec = random_market(seed, max_horizon=5, max_assets=4)
        sol = mv.solve_open_loop(spec)
        assert not isinstance(sol, NonexistenceReport), f"seed {seed}"
        assert np.all(sol.trace.cov_weight > 0), f"seed {seed}"
        assert np.all(sol.trace.riskless_growth_sq > 0)


def test_wealth_coefficients(preset_solution):
    spec, sol = preset_solution
    moments = mv.derive_excess_moments(spec)
    a, b = mv.equilibrium_wealth_coefficients(sol, spec)
    for k in range(4):
        assert a[k] == pytest.approx(1.04 + moments.mean_excess[k] @ sol.policy.gain(k))
        assert b[k] == pytest.approx(moments.mean_excess[k] @ sol.policy.offset(k))
    assert a[-1] == pytest.approx(1.7710, abs=5e-4)
    path = mv.mean_wealth_path(sol, spec)
    assert path[0] == 1.0
    assert len(path) == 5
    assert np.all(np.diff(path) > 0)  # positive drift in this market


def _solve_every_kind(spec):
    phi = mv.sample_pure_feedback(1, spec.horizon, spec.num_assets)
    return [mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, phi)]


@pytest.mark.parametrize("t", [0, 2])
def test_mean_wealth_path_ends_at_the_trees_exact_terminal_mean(t):
    # the path's last entry against the mean over the matched tree's leaf
    # paths, each carried stage by stage under the policy
    spec = mv.with_initial_state(mv.get_preset(PRESET), t=t, x=1.5)
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    for sol in _solve_every_kind(spec):
        wealth = np.array([spec.initial_wealth])
        for k in range(t, spec.horizon):
            controls = np.outer(wealth, sol.policy.gain(k)) + sol.policy.offset(k)
            wealth = (spec.riskless[k] * wealth[:, None] + controls @ tree.atoms(k).T).reshape(-1)
        assert len(wealth) == tree.leaf_count(t)
        path = mv.mean_wealth_path(sol, spec)
        assert len(path) == spec.horizon - t + 1 and path[0] == 1.5
        assert path[-1] == pytest.approx(wealth.mean(), rel=1e-12), sol.policy.kind


@pytest.mark.parametrize("t", [0, 2])
def test_wealth_coefficients_are_the_closed_loop_mean_multipliers(t):
    # a_k = s_k + mu_k . K_k and b_k = mu_k . c_k from the start stage on, for every kind
    spec = mv.with_initial_state(mv.get_preset(PRESET), t=t)
    mean = mv.derive_excess_moments(spec).mean_excess
    for sol in _solve_every_kind(spec):
        a, b = mv.equilibrium_wealth_coefficients(sol, spec)
        assert len(a) == len(b) == spec.horizon - t
        for i, k in enumerate(range(t, spec.horizon)):
            assert a[i] == pytest.approx(spec.riskless[k] + mean[k] @ sol.policy.gain(k), rel=1e-14)
            assert b[i] == pytest.approx(mean[k] @ sol.policy.offset(k), rel=1e-14)


def test_solution_from_interior_start_matches_tail():
    spec = mv.get_preset(PRESET)
    full = mv.solve_open_loop(spec)
    tail = mv.solve_open_loop(mv.with_initial_state(spec, t=2))
    assert tail.policy.start_stage == 2
    assert np.array_equal(tail.policy.gains, full.policy.gains[2:])
    assert np.array_equal(tail.policy.offsets, full.policy.offsets[2:])


def test_trace_csv_shape(preset_solution):
    spec, sol = preset_solution
    lines = mv.trace_csv(sol, spec).strip().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    assert header[0] == "k"
    assert "cov_weight" in header and "K_0" in header and "c_2" in header


def test_range_check_happens_before_any_policy_output():
    # stage 0 solvable, stage 1 not: the report points at stage 1
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.0,
        mean_returns=[[1.05, 1.0], [1.0, 1.1]],
        return_cov=[
            [[0.04, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 0.0]],
        ],
        mu1=1.0,
        mu2=1.0,
    )
    report = mv.solve_open_loop(spec)
    assert isinstance(report, NonexistenceReport)
    assert report.failing_stage == 1
