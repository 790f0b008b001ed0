"""Acceptance gate: the eight binding criteria, one pass/fail line each.

Criterion 2 establishes the golden feedback table inside the test: it derives
the table from the exact spike-deviation oracle alone, by backward best
response, and checks it against `reference.VERIFIED_FEEDBACK_*` and against
`solve_feedback`. It also checks that the bundled `reference.FEEDBACK_*` table
is rejected: its stage 0-2 rows lose to a one-stage deviation at every node of
the matched tree, so they are not a feedback equilibrium of this market.
"""

import sys
import time

import numpy as np
import pytest

import mvequil as mv
from mvequil import FailingCondition, NonexistenceReport
from mvequil.reference import (
    FEEDBACK_GAINS,
    FEEDBACK_OFFSETS,
    MIXED_GAINS,
    MIXED_LAST_GAIN_EIGENVALUES,
    MIXED_OFFSETS,
    MIXED_STRATEGY,
    OPEN_LOOP_GAINS,
    VERIFIED_FEEDBACK_GAINS,
    VERIFIED_FEEDBACK_OFFSETS,
)

from gainmatrix import gain_matrix
from instgen import random_market

PRESET = "li-duan-example-2"
TOL = 5e-4


def _report(num: int, name: str, ok: bool) -> None:
    line = f"[PRIMARY {num}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # also reach the terminal under capture
        print(line, file=sys.__stdout__)


@pytest.fixture(scope="module")
def preset():
    return mv.get_preset(PRESET)


def test_criterion_1_open_loop_golden_table_and_runtime(preset):
    sol = mv.solve_open_loop(preset)
    gain_err = float(np.max(np.abs(sol.policy.gains - OPEN_LOOP_GAINS)))
    offset_err = float(np.max(np.abs(sol.policy.offsets - OPEN_LOOP_GAINS)))
    mv.solve_open_loop(preset)  # warm-up for the timing runs
    elapsed = min(
        (lambda t0: (mv.solve_open_loop(preset), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    ok = gain_err < TOL and offset_err < TOL and elapsed < 0.010
    _report(1, "golden open-loop reproduction", ok)
    assert gain_err < TOL and offset_err < TOL, f"max table error {max(gain_err, offset_err):.2e}"
    assert elapsed < 0.010, f"solve took {elapsed * 1e3:.2f} ms"


def _oracle_feedback_table(tree, spec):
    """Feedback table by backward best response on the exact oracle alone.

    With the rule fixed after stage k, the best one-stage deviation at (k, x)
    under feedback semantics is the stage-k equilibrium action. It is affine
    in x, so its values at x = 0 and x = 1 give c_k and K_k; a third wealth
    level measures how far the response is from affine. The stage-k row handed
    to the oracle is a placeholder: it only moves the point about which the
    exact quadratic is fitted. No solver and no solver trace is used.
    """
    N, m = spec.horizon, spec.num_assets
    gains, offsets = np.zeros((N, m)), np.zeros((N, m))
    affine_err = 0.0
    for k in reversed(range(N)):
        rule = mv.AffinePolicy(mv.PolicyKind.FEEDBACK, k, gains[k:].copy(), offsets[k:].copy())
        u0, u1, u_probe = (
            mv.best_spike_deviation(tree, spec, rule, k, x, mv.PolicyKind.FEEDBACK)[0]
            for x in (0.0, 1.0, 2.5)
        )
        offsets[k], gains[k] = u0, u1 - u0
        affine_err = max(affine_err, float(np.max(np.abs(u_probe - (2.5 * gains[k] + u0)))))
    return gains, offsets, affine_err


def test_criterion_2_feedback_golden_table(preset):
    tree = mv.build_matched_tree(mv.derive_excess_moments(preset))
    gains, offsets, affine_err = _oracle_feedback_table(tree, preset)
    golden_err = max(
        float(np.max(np.abs(gains - VERIFIED_FEEDBACK_GAINS))),
        float(np.max(np.abs(offsets - VERIFIED_FEEDBACK_OFFSETS))),
    )
    sol = mv.solve_feedback(preset)
    solver_err = max(
        float(np.max(np.abs(sol.policy.gains - gains))),
        float(np.max(np.abs(sol.policy.offsets - offsets))),
    )

    last = preset.horizon - 1
    bundled = mv.AffinePolicy(mv.PolicyKind.FEEDBACK, 0, FEEDBACK_GAINS, FEEDBACK_OFFSETS)
    result = mv.verify_equilibrium(tree, preset, bundled)
    early = result.stage < last
    early_gaps = result.gap[early] / np.maximum(1.0, np.abs(result.j_star[early]))
    early_rejected = early_gaps.size > 0 and early_gaps.max() < -1e-3
    last_rows_equal = np.array_equal(FEEDBACK_GAINS[last], VERIFIED_FEEDBACK_GAINS[last])
    last_rows_equal &= np.array_equal(FEEDBACK_OFFSETS[last], VERIFIED_FEEDBACK_OFFSETS[last])

    ok = (
        affine_err < 1e-10
        and golden_err < TOL
        and solver_err < 1e-10
        and early_rejected
        and last_rows_equal
    )
    _report(2, "golden feedback table derived by the oracle; bundled rows rejected", ok)
    assert affine_err < 1e-10, f"oracle best response is not affine in wealth: {affine_err:.2e}"
    assert golden_err < TOL, (
        f"oracle-derived feedback table differs from VERIFIED_FEEDBACK_* by {golden_err:.2e} "
        f"(tolerance {TOL:g})"
    )
    assert solver_err < 1e-10, f"solve_feedback differs from the oracle table by {solver_err:.2e}"
    assert early_rejected, (
        f"the bundled FEEDBACK_* rows for stages 0-{last - 1} must lose to a one-stage "
        f"deviation at every node by a normalized gap below -1e-3; the least negative "
        f"of {len(early_gaps)} gaps is {max(early_gaps, default=float('nan')):.3e}"
    )
    assert last_rows_equal, f"the bundled stage-{last} feedback row must equal the verified one"


def test_criterion_3_mixed_golden_table_and_eigenvalues(preset):
    sol = mv.solve_mixed(preset, mv.PureFeedbackPart(gains=MIXED_STRATEGY))
    gain_err = float(np.max(np.abs(sol.policy.gains - MIXED_GAINS)))
    offset_err = float(np.max(np.abs(sol.policy.offsets - MIXED_OFFSETS)))
    eigs = np.sort(sol.gain_eigenvalues(preset)[preset.horizon - 1])
    eig_err = float(np.max(np.abs(eigs - MIXED_LAST_GAIN_EIGENVALUES)))
    ok = gain_err < TOL and offset_err < TOL and eig_err < TOL
    _report(3, "golden mixed reproduction", ok)
    assert ok, f"errors: gains {gain_err:.2e}, offsets {offset_err:.2e}, eigenvalues {eig_err:.2e}"


def test_criterion_4_zero_strategy_reduction(preset):
    markets = [preset] + [random_market(100 + i, max_horizon=5, max_assets=4) for i in range(25)]
    worst = 0.0
    for spec in markets:
        open_loop = mv.solve_open_loop(spec)
        mixed = mv.solve_mixed(spec, mv.zero_pure_feedback(spec.horizon, spec.num_assets))
        assert not isinstance(open_loop, NonexistenceReport)
        assert not isinstance(mixed, NonexistenceReport)
        worst = max(
            worst,
            float(np.max(np.abs(mixed.policy.gains - open_loop.policy.gains))),
            float(np.max(np.abs(mixed.policy.offsets - open_loop.policy.offsets))),
        )
    ok = worst <= 1e-10
    _report(4, "mixed(zero strategy) equals open-loop", ok)
    assert ok, f"worst componentwise difference {worst:.2e}"


def _mixed_with_solvable_strategy(spec, moments):
    for phi_seed in range(20):
        phi = mv.sample_pure_feedback(phi_seed, spec.horizon, spec.num_assets)
        sol = mv.solve_mixed(spec, phi, moments)
        if not isinstance(sol, NonexistenceReport):
            return sol
    raise AssertionError("no solvable strategy draw in 20 attempts")


def test_criterion_5_equilibrium_property_on_random_instances():
    t0 = time.time()
    markets = [random_market(200 + i, max_horizon=4, max_assets=3) for i in range(25)]
    worst_normalized_gap = float("inf")
    for spec in markets:
        moments = mv.derive_excess_moments(spec)
        tree = mv.build_matched_tree(moments)
        assert tree.leaf_count(spec.initial_time) <= 10**5
        open_loop = mv.solve_open_loop(spec, moments)
        feedback = mv.solve_feedback(spec, moments)
        mixed = _mixed_with_solvable_strategy(spec, moments)
        for target in (open_loop.policy, feedback.policy, mixed):
            result = mv.verify_equilibrium(tree, spec, target)
            assert result.passed.all()
            worst_normalized_gap = min(
                worst_normalized_gap,
                float((result.gap / np.maximum(1.0, np.abs(result.j_star))).min()),
            )
    elapsed = time.time() - t0
    ok = worst_normalized_gap >= -1e-7 and elapsed < 60.0
    _report(5, "equilibrium property on 25 random instances", ok)
    assert worst_normalized_gap >= -1e-7, f"worst normalized gap {worst_normalized_gap:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_6_degenerate_covariance_handling():
    q = np.array([1.0, 0.5, -0.25])
    cov = np.outer(0.2 * q, 0.2 * q)  # rank one by construction
    q_perp = np.array([0.5, -1.0, 0.0])
    assert abs(q @ q_perp) < 1e-15

    def build(mean_excess):
        return mv.make_market_spec(
            horizon=3,
            num_assets=3,
            riskless=1.02,
            mean_returns=1.02 + mean_excess,
            return_cov=cov,
            mu1=1.0,
            mu2=1.0,
        )

    parallel = build(0.05 * q)
    open_loop = mv.solve_open_loop(parallel)
    feedback = mv.solve_feedback(parallel)
    mixed = mv.solve_mixed(parallel, mv.zero_pure_feedback(3, 3))
    solvable = not any(
        isinstance(sol, NonexistenceReport) for sol in (open_loop, feedback, mixed)
    )

    skew = build(0.05 * q + 0.03 * q_perp)
    report = mv.solve_open_loop(skew)
    rejected = (
        isinstance(report, NonexistenceReport)
        and report.failing_condition is FailingCondition.RANGE_CONDITION
    )
    ok = solvable and rejected
    _report(6, "rank-one covariance: parallel solves, skew rejected", ok)
    assert solvable, "parallel mean excess must solve in all three solvers"
    assert rejected, f"expected a range-condition nonexistence report, got {report!r}"


def test_criterion_7_recursion_invariants(preset):
    corpus = [preset]
    corpus += [random_market(100 + i, max_horizon=5, max_assets=4) for i in range(25)]
    corpus += [random_market(200 + i, max_horizon=4, max_assets=3) for i in range(25)]
    ok = True
    details = []
    for spec in corpus:
        open_loop = mv.solve_open_loop(spec)
        if not np.all(open_loop.trace.cov_weight > 0):
            ok = False
            details.append("open-loop cov_weight not positive")
        fb = mv.solve_feedback(spec)
        covw, mow = fb.trace.cov_weight, fb.trace.mean_outer_weight
        slack = 1e-10 * np.maximum(1.0, covw)
        if not (np.all(mow >= -slack) and np.all(covw - mow >= -slack)):
            ok = False
            details.append("feedback weight ordering violated")
        eig_floor = 1e-10 * np.maximum(1.0, np.linalg.eigvalsh(spec.return_cov).max(axis=1))
        all_pd = np.all(np.linalg.eigvalsh(spec.return_cov)[:, 0] > eig_floor)
        if all_pd:
            for k in range(spec.initial_time, spec.horizon):
                if np.linalg.eigvalsh(gain_matrix(spec, fb.trace, k))[0] <= 0:
                    ok = False
                    details.append(f"feedback gain matrix not PD at stage {k}")
    _report(7, "recursion invariants across the corpus", ok)
    assert ok, "; ".join(details)


def test_criterion_8_monte_carlo_consistency(preset):
    t0 = time.time()
    moments = mv.derive_excess_moments(preset)
    tree = mv.build_matched_tree(moments)
    sol = mv.solve_open_loop(preset, moments)
    exact = mv.evaluate_cost_exact(tree, preset, sol.policy, 0, 1.0)
    sim = mv.simulate_monte_carlo(preset, sol.policy, n_paths=10**5, seed=7, distribution=tree)
    elapsed = time.time() - t0
    deviation = abs(sim.cost - exact)
    ok = deviation <= 4 * sim.se_cost and elapsed < 10.0
    _report(8, "Monte Carlo within 4 standard errors of exact", ok)
    assert deviation <= 4 * sim.se_cost, (
        f"MC {sim.cost:.6f} vs exact {exact:.6f}, {deviation / sim.se_cost:.2f} SEs"
    )
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
