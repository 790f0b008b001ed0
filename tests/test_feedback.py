"""Feedback equilibrium strategy solver."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import mvequil as mv
from mvequil import FailingCondition, InternalInconsistencyError, NonexistenceReport
from mvequil.cli import EXIT_NONEXISTENT, main
from mvequil.linalg import CovarianceSolve
from mvequil.reference import VERIFIED_FEEDBACK_GAINS, VERIFIED_FEEDBACK_OFFSETS

from gainmatrix import gain_matrix
from instgen import feedback_only_market, off_range_market, random_market, random_market_full_rank

PRESET = "li-duan-example-2"


@pytest.fixture(scope="module")
def preset_solution():
    spec = mv.get_preset(PRESET)
    return spec, mv.solve_feedback(spec)


def test_regression_against_deviation_proof_table(preset_solution):
    # the reference table was confirmed by the exact spike-deviation oracle
    _, sol = preset_solution
    assert np.max(np.abs(sol.policy.gains - VERIFIED_FEEDBACK_GAINS)) < 5e-4
    assert np.max(np.abs(sol.policy.offsets - VERIFIED_FEEDBACK_OFFSETS)) < 5e-4


def test_terminal_stage_matches_open_loop(preset_solution):
    spec, sol = preset_solution
    open_loop = mv.solve_open_loop(spec)
    assert np.allclose(sol.policy.gain(3), open_loop.policy.gain(3), atol=1e-12)
    assert np.allclose(sol.policy.offset(3), open_loop.policy.offset(3), atol=1e-12)


def test_weight_ordering_invariant(preset_solution):
    spec, sol = preset_solution
    instances = [(spec, sol)]
    for seed in range(20):
        rspec = random_market(seed)
        rsol = mv.solve_feedback(rspec)
        assert not isinstance(rsol, NonexistenceReport), f"seed {seed}"
        instances.append((rspec, rsol))
    for ispec, isol in instances:
        covw = isol.trace.cov_weight
        mow = isol.trace.mean_outer_weight
        slack = 1e-10 * np.maximum(1.0, covw)
        assert np.all(mow >= -slack)
        assert np.all(covw - mow >= -slack)
        assert np.all(covw > 0)


def test_gain_matrix_positive_definite_under_pd_covariance(preset_solution):
    spec, sol = preset_solution
    cases = [(spec, sol)]
    for seed in range(10):
        rspec = random_market_full_rank(seed)
        cases.append((rspec, mv.solve_feedback(rspec)))
    for ispec, isol in cases:
        for k in range(ispec.initial_time, ispec.horizon):
            eigs = np.linalg.eigvalsh(gain_matrix(ispec, isol.trace, k))
            assert eigs[0] > 0, f"stage {k}"


def test_policy_independent_of_initial_wealth():
    spec = mv.get_preset(PRESET)
    at_one = mv.solve_feedback(spec)
    at_hundred = mv.solve_feedback(mv.with_initial_state(spec, x=100.0))
    assert np.array_equal(at_one.policy.gains, at_hundred.policy.gains)
    assert np.array_equal(at_one.policy.offsets, at_hundred.policy.offsets)


def test_closed_loop_multiplier(preset_solution):
    # the closed-loop mean multiplier s_k + mean . Phi_k is the wealth-path coefficient a_k
    spec, sol = preset_solution
    moments = mv.derive_excess_moments(spec)
    multipliers = mv.equilibrium_wealth_coefficients(sol, spec)[0]
    assert multipliers[3] == pytest.approx(1.7710, abs=5e-4)
    for k in range(4):
        expected = 1.04 + moments.mean_excess[k] @ sol.policy.gain(k)
        assert multipliers[k] == pytest.approx(expected)


def test_single_stage_single_asset_closed_form():
    spec = mv.make_market_spec(
        horizon=1,
        num_assets=1,
        riskless=1.05,
        mean_returns=[1.15],
        return_cov=[[0.05]],
        mu1=1.0,
        mu2=1.0,
    )
    sol = mv.solve_feedback(spec)
    # gain = (mu1 / 2) * mean_excess / variance, offset likewise with mu2
    assert sol.policy.gain(0)[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.policy.offset(0)[0] == pytest.approx(1.0, abs=1e-12)
    assert mv.equilibrium_wealth_coefficients(sol, spec)[0][0] == pytest.approx(1.15, abs=1e-12)


def test_zero_excess_returns_zero_strategy():
    spec = mv.make_market_spec(
        horizon=3,
        num_assets=2,
        riskless=1.02,
        mean_returns=[1.02, 1.02],
        return_cov=[[0.02, 0.0], [0.0, 0.03]],
        mu1=1.0,
        mu2=1.0,
    )
    sol = mv.solve_feedback(spec)
    assert np.array_equal(sol.policy.gains, np.zeros((3, 2)))
    assert np.array_equal(sol.policy.offsets, np.zeros((3, 2)))
    assert np.array_equal(sol.trace.mean_outer_weight, np.zeros(4))


def _long_horizon_single_asset(mean_return):
    # riskless 0.5 shrinks cov_weight by 4x per stage, to 3.6e-15 by stage 5
    return mv.make_market_spec(
        horizon=30,
        num_assets=1,
        riskless=0.5,
        mean_returns=[mean_return],
        return_cov=[[0.01]],
        mu1=1.0,
        mu2=1.0,
    )


def test_tiny_cov_weight_with_zero_excess_solves_to_zero_strategy():
    # an absolute guard on cov_weight once rejected this valid market
    sol = mv.solve_feedback(_long_horizon_single_asset(0.5))
    assert not isinstance(sol, NonexistenceReport)
    assert sol.trace.cov_weight[5] < 1e-14
    assert np.array_equal(sol.policy.gains, np.zeros((30, 1)))
    assert np.array_equal(sol.policy.offsets, np.zeros((30, 1)))


def test_feedback_is_mixed_with_its_own_gains_reapplied():
    for spec in (_long_horizon_single_asset(0.55), mv.get_preset(PRESET)):
        sol = mv.solve_feedback(spec)
        assert not isinstance(sol, NonexistenceReport)
        mixed = mv.solve_mixed(spec, mv.PureFeedbackPart(gains=sol.policy.gains))
        assert not isinstance(mixed, NonexistenceReport)
        scale = max(1.0, float(np.max(np.abs(sol.policy.gains))))
        assert np.max(np.abs(mixed.policy.gains - sol.policy.gains)) <= 1e-12 * scale
        assert np.max(np.abs(mixed.policy.offsets - sol.policy.offsets)) <= 1e-12 * scale
        assert np.allclose(mixed.trace.cov_weight, sol.trace.cov_weight, rtol=1e-12, atol=0)


def test_nonexistence_when_mean_leaves_range_at_last_stage():
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.0,
        mean_returns=[1.0, 1.1],
        return_cov=[[1.0, 0.0], [0.0, 0.0]],
        mu1=1.0,
        mu2=1.0,
    )
    report = mv.solve_feedback(spec)
    assert isinstance(report, NonexistenceReport)
    assert report.failing_stage == 1
    assert report.failing_condition is FailingCondition.GAIN_SOLVABILITY


def test_feedback_can_exist_where_open_loop_does_not():
    spec = feedback_only_market()
    assert isinstance(mv.solve_open_loop(spec), NonexistenceReport)
    sol = mv.solve_feedback(spec)
    assert not isinstance(sol, NonexistenceReport)
    assert sol.trace.mean_outer_weight[1] > 0

    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments)
    assert mv.verify_equilibrium(tree, spec, sol.policy).passed.all()


def test_failed_check_is_a_bug_where_every_range_condition_holds(monkeypatch):
    # the recursion's own range test tells a numerics bug from nonexistence,
    # so the guard decomposes no covariance again
    monkeypatch.setattr(CovarianceSolve, "_is_psd", lambda self, k, cw, *rule: np.zeros(len(cw), dtype=bool))
    eigh_calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: eigh_calls.append(1) or eigh(*a, **kw))
    with pytest.raises(InternalInconsistencyError, match="psd_condition failed .* range condition holds"):
        mv.solve_feedback(mv.get_preset(PRESET))
    assert eigh_calls == []
    # the mean leaves the covariance's range at stages 0-1: the same failure is nonexistence
    report = mv.solve_feedback(off_range_market())
    assert isinstance(report, NonexistenceReport)
    assert (report.failing_stage, report.failing_condition) == (2, FailingCondition.PSD_CONDITION)


def test_trace_csv_has_one_row_per_stage(preset_solution):
    spec, sol = preset_solution
    lines = mv.trace_csv(sol, spec).strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[:3] == ["k", "cov_weight", "mean_outer_weight"]


def test_overflowing_weight_is_an_error_never_a_report(tmp_path):
    # the last-stage gains near 1.5e308 are finite, but cp * cm overflows in
    # stage 0's weights; that is a numerical failure, not nonexistence
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.02,
        mean_returns=[1.05, 1.03],
        return_cov=[[1e-310, 0], [0, 2e-310]],
        mu1=1,
        mu2=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            outcome = mv.solve_feedback(spec)
        except Exception as exc:  # noqa: BLE001 - any error, so long as it is not a report
            outcome = exc
        assert not isinstance(outcome, NonexistenceReport)
        market = tmp_path / "subnormal.json"
        market.write_text(mv.dump_market_spec(spec))
        for command in ("solve-feedback", "verify"):
            assert main([command, "--market", str(market)]) != EXIT_NONEXISTENT, command


def test_float_range_error_names_the_first_stage_the_recursion_reaches(monkeypatch):
    # the long market, 7,500 full-rank stages: cov_weight shrinks, but the squared
    # product of the remaining riskless returns passes the float range at stage 124
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    spec = mv.make_market_spec(**workloads.random_market(np.random.default_rng(3), 7500, 3, degenerate=False))
    with pytest.raises(mv.ValidationError, match=r"^stage 124: a gain, offset or weight leaves the float range$"):
        mv.solve_feedback(spec)
