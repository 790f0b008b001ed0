"""Mixed equilibrium solver: strategy part chosen, open-loop part solved."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvequil as mv
from mvequil import NonexistenceReport, PureFeedbackPart
from mvequil.reference import (
    MIXED_GAINS,
    MIXED_LAST_GAIN_EIGENVALUES,
    MIXED_OFFSETS,
    MIXED_STRATEGY,
)

from gainmatrix import gain_matrix
from instgen import off_range_market, random_market

PRESET = "li-duan-example-2"


@pytest.fixture(scope="module")
def preset_mixed():
    spec = mv.get_preset(PRESET)
    sol = mv.solve_mixed(spec, PureFeedbackPart(gains=MIXED_STRATEGY))
    return spec, sol


def test_golden_table(preset_mixed):
    _, sol = preset_mixed
    assert np.max(np.abs(sol.policy.gains - MIXED_GAINS)) < 5e-4
    assert np.max(np.abs(sol.policy.offsets - MIXED_OFFSETS)) < 5e-4


def test_golden_last_stage_gain_eigenvalues(preset_mixed):
    spec, sol = preset_mixed
    eigs = np.sort(sol.trace.gain_eigenvalues[spec.horizon - 1])
    assert np.max(np.abs(eigs - MIXED_LAST_GAIN_EIGENVALUES)) < 5e-4


def test_zero_strategy_reduces_to_open_loop():
    cases = [mv.get_preset(PRESET)]
    cases += [random_market(seed, max_horizon=5, max_assets=4) for seed in range(25)]
    for spec in cases:
        open_loop = mv.solve_open_loop(spec)
        mixed = mv.solve_mixed(spec, mv.zero_pure_feedback(spec.horizon, spec.num_assets))
        assert not isinstance(mixed, NonexistenceReport)
        assert np.max(np.abs(mixed.policy.gains - open_loop.policy.gains)) <= 1e-10
        assert np.max(np.abs(mixed.policy.offsets - open_loop.policy.offsets)) <= 1e-10


def test_cross_checked_shift_recursions_agree_on_random_strategies():
    spec = mv.get_preset(PRESET)
    for seed in range(6):
        phi = mv.sample_pure_feedback(seed, spec.horizon, spec.num_assets)
        sol = mv.solve_mixed(spec, phi)
        assert not isinstance(sol, NonexistenceReport)
        assert sol.trace.stage_ok.all()


def test_large_strategy_part_solves_without_overflow():
    # a curvature check once overflowed here and raised LinAlgError; the
    # weights themselves grow to about 1e145 but stay finite
    preset = mv.get_preset(PRESET)
    spec = mv.make_market_spec(
        horizon=45,
        num_assets=3,
        riskless=1.04,
        mean_returns=preset.mean_returns[0],
        return_cov=preset.return_cov[0],
        mu1=1.0,
        mu2=1.0,
    )
    phi = PureFeedbackPart(gains=1e4 * np.random.default_rng(0).standard_normal((45, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = mv.solve_mixed(spec, phi)
    assert not isinstance(sol, NonexistenceReport)
    assert np.all(np.isfinite(sol.trace.cov_weight)) and np.all(np.isfinite(sol.policy.gains))
    assert sol.trace.stage_ok.all()


def test_huge_weights_keep_finite_residuals():
    # at horizon 60 the weights reach about 1e195; the norms in the range
    # checks once overflowed to inf, so every check passed whatever the residual
    preset = mv.get_preset(PRESET)
    spec = mv.make_market_spec(
        horizon=60,
        num_assets=3,
        riskless=1.04,
        mean_returns=preset.mean_returns[0],
        return_cov=preset.return_cov[0],
        mu1=1.0,
        mu2=1.0,
    )
    phi = PureFeedbackPart(gains=1e4 * np.random.default_rng(0).standard_normal((60, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = mv.solve_mixed(spec, phi)
    assert not isinstance(sol, NonexistenceReport)
    assert np.nanmax(np.abs(sol.trace.cov_weight)) > 1e154
    for residual in (sol.trace.range_residual, sol.trace.gain_residual, sol.trace.offset_residual):
        assert np.all(np.isfinite(residual))


def test_last_stage_independent_of_strategy():
    spec = mv.get_preset(PRESET)
    sols = [
        mv.solve_mixed(spec, mv.sample_pure_feedback(seed, spec.horizon, spec.num_assets))
        for seed in (1, 2)
    ]
    last = spec.horizon - 1
    G0, G1 = (gain_matrix(spec, sol.trace, last) for sol in sols)
    assert np.allclose(G0, G1, atol=1e-15)
    assert np.allclose(sols[0].policy.gain(last), sols[1].policy.gain(last), atol=1e-15)
    open_loop = mv.solve_open_loop(spec)
    assert np.allclose(sols[0].policy.gain(last), open_loop.policy.gain(last), atol=1e-12)


def test_sampling_is_deterministic():
    a = mv.sample_pure_feedback(5, 4, 3)
    b = mv.sample_pure_feedback(5, 4, 3)
    assert np.array_equal(a.gains, b.gains)
    c = mv.sample_pure_feedback(6, 4, 3)
    assert not np.array_equal(a.gains, c.gains)


def test_load_pure_feedback(tmp_path):
    rows = [[0.1, -0.2], [0.0, 0.3], [1.0, 0.0]]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(rows))
    part = mv.load_pure_feedback(path, horizon=3, num_assets=2)
    assert np.array_equal(part.gains, np.asarray(rows))
    with pytest.raises(ValueError, match="shape"):
        mv.load_pure_feedback(path, horizon=2, num_assets=2)


def test_frozen_gains_decomposition(preset_mixed):
    _, sol = preset_mixed
    assert np.allclose(sol.frozen_gains, sol.policy.gains - sol.feedback_part.gains, atol=1e-15)


def test_strategy_part_goes_with_the_mixed_kind_only():
    spec = mv.get_preset(PRESET)
    part = PureFeedbackPart(gains=MIXED_STRATEGY)
    for sol in (mv.solve_open_loop(spec), mv.solve_feedback(spec)):
        assert sol.feedback_part is None
        with pytest.raises(TypeError, match="no strategy part"):
            sol.frozen_gains
    for kind in (mv.PolicyKind.OPEN_LOOP, mv.PolicyKind.FEEDBACK):
        with pytest.raises(ValueError, match="exactly when the kind is mixed"):
            mv.backward_recursion(spec, None, kind, part)
    with pytest.raises(ValueError, match="exactly when the kind is mixed"):
        mv.backward_recursion(spec, None, mv.PolicyKind.MIXED)


def test_mean_wealth_path_matches_open_loop_for_zero_strategy():
    spec = mv.get_preset(PRESET)
    mixed = mv.solve_mixed(spec, mv.zero_pure_feedback(spec.horizon, spec.num_assets))
    open_loop = mv.solve_open_loop(spec)
    assert np.allclose(
        mv.mean_wealth_path(mixed, spec),
        mv.mean_wealth_path(open_loop, spec),
        atol=1e-10,
    )


def test_policy_and_strategy_part_copy_the_callers_arrays():
    gains, offsets = np.zeros((2, 3)), np.ones((2, 3))
    policy = mv.AffinePolicy(mv.PolicyKind.MIXED, 0, gains, offsets)
    part = PureFeedbackPart(gains=gains)
    assert gains.flags.writeable and offsets.flags.writeable
    gains[0, 0] = 5.0
    offsets[1, 2] = 5.0
    assert policy.gain(0)[0] == 0.0 and policy.offset(1)[2] == 1.0
    assert part.gains[0, 0] == 0.0
    assert not (policy.gains.flags.writeable or part.gains.flags.writeable)


def test_strategy_shape_is_validated():
    spec = mv.get_preset(PRESET)
    with pytest.raises(ValueError, match="shape"):
        mv.solve_mixed(spec, PureFeedbackPart(gains=np.zeros((2, 3))))


def test_recursion_rejects_a_strategy_part_of_the_wrong_shape():
    # as many entries as the preset's (4, 3) part, so a reshape would accept it
    spec = mv.get_preset(PRESET)
    with pytest.raises(ValueError, match=r"strategy part shape \(2, 6\) does not match market \(4, 3\)"):
        mv.backward_recursion(spec, None, mv.PolicyKind.MIXED, [PureFeedbackPart(np.arange(12.0).reshape(2, 6))])


def test_trace_csv_has_one_row_per_stage(preset_mixed):
    spec, sol = preset_mixed
    lines = mv.trace_csv(sol, spec).strip().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    assert "strategy_0" in header and "gain_eig_2" in header


def test_applied_policy_kind(preset_mixed):
    _, sol = preset_mixed
    assert sol.policy.kind is mv.PolicyKind.MIXED
    assert sol.trace.stage_ok.all()


def test_gain_matrix_need_not_be_psd():
    # the deviation Hessian 2(E[beta^2] Sigma + Var(beta) mu mu') is PSD for any
    # strategy part, so an indefinite G is no obstacle to a mixed equilibrium
    spec = random_market(7, 4, 3)
    phi = PureFeedbackPart(gains=5 * np.random.default_rng(7).standard_normal((spec.horizon, spec.num_assets)))
    sol = mv.solve_mixed(spec, phi)
    assert not isinstance(sol, NonexistenceReport)
    lam_min = sol.trace.gain_eigenvalues[:, 0]
    assert lam_min.min() < -0.1
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    assert mv.verify_equilibrium(tree, spec, sol).passed.all()


def test_random_phi_experiment_script_verifies_every_draw():
    # the script hands whole mixed solutions to verify_equilibrium
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "random_phi_experiment.py"), "--verify", "--draws", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = list(csv.DictReader(done.stdout.splitlines()))
    header = ["draw", "phi_seed", "status", "stage", "gain_eig_0", "gain_eig_1", "gain_eig_2", "min_gap"]
    assert done.stdout.splitlines()[0].split(",") == header
    gaps = [float(row["min_gap"]) for row in rows if row["status"] == "solved" and row["min_gap"]]
    assert len(gaps) == 3 and min(gaps) >= -1e-6


def test_batch_gives_each_part_its_own_outcome():
    # the zero part fails gain solvability at stage 1 and leaves the stack
    # there, while the seeded parts solve
    spec = off_range_market()
    zero = mv.zero_pure_feedback(spec.horizon, spec.num_assets)
    parts = [mv.sample_pure_feedback(seed, spec.horizon, spec.num_assets) for seed in range(3)]
    parts = parts[:1] + [zero] + parts[1:] + [zero]
    batch = mv.solve_mixed_batch(spec, parts)
    assert len(batch) == len(parts)
    for part, together in zip(parts, batch):
        alone = mv.solve_mixed(spec, part)
        assert type(together) is type(alone)
        if part is zero:
            assert (together.failing_stage, together.failing_condition) == (1, mv.FailingCondition.GAIN_SOLVABILITY)
            assert together == alone
            continue
        assert together.feedback_part is part and together.trace.stage_ok.all()
        for got, want in ((together.policy.gains, alone.policy.gains), (together.policy.offsets, alone.policy.offsets)):
            assert np.abs(got - want).max() <= 1e-8 * max(1.0, np.abs(want).max())
