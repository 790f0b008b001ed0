"""The shared backward recursion: one eigendecomposition per stage, one trace, one CSV writer.

The covariance readers outside the recursion decompose all stages with one stacked call.
"""

import numpy as np
import pytest

import mvequil as mv
from mvequil import NonexistenceReport
from mvequil.cli import main

from instgen import random_market

PRESET = "li-duan-example-2"


def _count_eigendecompositions(monkeypatch) -> list:
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "spec",
    [
        mv.get_preset(PRESET),
        mv.with_initial_state(mv.get_preset(PRESET), t=2),
        random_market(13),  # covariance ranks 3, 1, 2, 1
    ],
    ids=["preset", "preset-from-stage-2", "rank-deficient"],
)
def test_one_eigendecomposition_per_solved_stage(monkeypatch, spec):
    moments = mv.derive_excess_moments(spec)
    phi = mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)
    solves = {
        "open_loop": lambda: mv.solve_open_loop(spec, moments),
        "feedback": lambda: mv.solve_feedback(spec, moments),
        "mixed": lambda: mv.solve_mixed(spec, phi, moments),
    }
    calls = _count_eigendecompositions(monkeypatch)
    counts = {}
    for name, solve in solves.items():
        calls.clear()
        assert not isinstance(solve(), NonexistenceReport), name
        counts[name] = len(calls)
    stages = spec.horizon - spec.initial_time
    assert counts == {name: stages for name in solves}


@pytest.mark.parametrize("market", [PRESET, "rank-deficient"])
def test_batch_decomposes_once_per_stage_for_all_draws(monkeypatch, tmp_path, market):
    if market == "rank-deficient":
        market = str(tmp_path / "market.json")
        (tmp_path / "market.json").write_text(mv.dump_market_spec(random_market(13)))
    horizon = mv.resolve_market(market).horizon
    calls = _count_eigendecompositions(monkeypatch)
    out = tmp_path / "batch.csv"
    assert main(["batch", "--market", market, "--draws", "16", "--format", "csv", "--out", str(out)]) == 0
    assert calls.count("eigh") == horizon  # one stacked eigh per stage, not one per draw and stage
    assert out.read_text().count(",solved,") == 16 * horizon


@pytest.mark.parametrize(
    "spec",
    [
        mv.get_preset(PRESET),
        mv.make_market_spec(12, 3, 1.04, [1.162, 1.246, 1.228], mv.get_preset(PRESET).return_cov[0], 1, 1),
        random_market(13),  # covariance ranks 3, 1, 2, 1
    ],
    ids=["preset", "preset-12-stages", "rank-deficient"],
)
def test_one_stacked_decomposition_per_covariance_reader(monkeypatch, spec):
    moments = mv.derive_excess_moments(spec)
    solution = mv.solve_open_loop(spec, moments)
    calls = _count_eigendecompositions(monkeypatch)
    readers = {
        "make_market_spec": lambda: mv.make_market_spec(**spec.to_json_dict()),
        "build_matched_tree": lambda: mv.build_matched_tree(moments),
        "simulate_monte_carlo": lambda: mv.simulate_monte_carlo(spec, solution, 100, seed=0, moments=moments),
    }
    counts = {}
    for name, read in readers.items():
        calls.clear()
        read()
        counts[name] = calls.copy()
    # one stacked call each, whatever the horizon
    assert counts == {
        "make_market_spec": ["eigvalsh"],
        "build_matched_tree": ["eigh"],
        "simulate_monte_carlo": ["eigh"],
    }


def test_trace_csv_columns_per_kind():
    spec = mv.get_preset(PRESET)
    vec = lambda prefix: [f"{prefix}_{i}" for i in range(3)]  # noqa: E731
    weights = ["cov_weight", "mean_outer_weight", "mean_coupling", "mean_offset"]
    expected = {
        mv.PolicyKind.OPEN_LOOP: ["k", "cov_weight", "riskless_growth_sq", "mean_coupling", "mean_offset"]
        + vec("K") + vec("c") + ["range_residual"],
        mv.PolicyKind.FEEDBACK: ["k"] + weights + vec("coupling") + vec("K") + vec("c")
        + ["gain_residual", "offset_residual"],
        mv.PolicyKind.MIXED: ["k"] + weights + vec("strategy") + vec("K") + vec("c")
        + vec("gain_eig") + ["gain_residual", "offset_residual", "stage_ok"],
    }
    solutions = [
        mv.solve_open_loop(spec),
        mv.solve_feedback(spec),
        mv.solve_mixed(spec, mv.sample_pure_feedback(1, 4, 3)),
    ]
    for sol in solutions:
        lines = mv.trace_csv(sol, spec).splitlines()
        assert lines[0].split(",") == expected[sol.policy.kind]
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2, 3]


def test_kind_specific_trace_invariants():
    spec = mv.get_preset(PRESET)
    open_loop = mv.solve_open_loop(spec)
    assert np.all(open_loop.trace.mean_outer_weight == 0.0)
    assert np.all(open_loop.trace.stage_ok)
    assert np.all(open_loop.trace.range_residual <= 1e-12)
    later = mv.solve_feedback(mv.with_initial_state(spec, t=2))
    assert np.isnan(later.trace.gain_eigenvalues[:2]).all() and not later.trace.stage_ok[:2].any()
    assert np.all(later.trace.gain_eigenvalues[2:, 0] > 0)
