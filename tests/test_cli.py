"""Command-line interface: subcommands, formats, exit codes, determinism."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvequil as mv
from mvequil.cli import main

from instgen import SMALL_SCALES, TINY_SCALES, feedback_only_market, small_scale_market

PRESET = "li-duan-example-2"


@pytest.fixture()
def range_fail_market(tmp_path):
    path = tmp_path / "range_fail.json"
    path.write_text(
        json.dumps(
            {
                "horizon": 2,
                "num_assets": 2,
                "riskless": 1.0,
                "mean_returns": [1.0, 1.1],
                "return_cov": [[1.0, 0.0], [0.0, 0.0]],
                "mu1": 1.0,
                "mu2": 1.0,
            }
        )
    )
    return str(path)


def test_solve_open_loop_pretty(capsys):
    assert main(["solve-open-loop"]) == 0
    out = capsys.readouterr().out
    assert "open-loop equilibrium control" in out
    assert "0.1391" in out and "2.7381" in out


def test_solve_feedback_csv_four_rows(capsys):
    assert main(["solve-feedback", "--market", PRESET, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # header + one row per stage
    header = lines[0].split(",")
    k_cols = [i for i, name in enumerate(header) if name.startswith("K_")]
    c_cols = [i for i, name in enumerate(header) if name.startswith("c_")]
    assert len(k_cols) == 3 and len(c_cols) == 3
    row1 = lines[2].split(",")
    gains = [float(row1[i]) for i in k_cols]
    assert np.allclose(gains, [0.0655, 0.1063, 0.3785], atol=5e-4)


def test_solve_mixed_json(capsys):
    assert main(["solve-mixed", "--phi", "sample", "--seed", "11", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "mixed"
    assert np.asarray(data["gains"]).shape == (4, 3)
    assert "gain_eigenvalues" in data["trace"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("t", [0, 1, 2, 3])
@pytest.mark.parametrize("solver", ["open-loop", "feedback", "mixed"])
def test_solve_json_is_strict_json_from_any_stage(solver, t, capsys):
    # stages before t were not solved: null, not a bare NaN, which RFC 8259 parsers reject
    assert main([f"solve-{solver}", "--t", str(t), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    spec = mv.with_initial_state(mv.get_preset(PRESET), t=t)
    solution = {
        "open-loop": mv.solve_open_loop,
        "feedback": mv.solve_feedback,
        "mixed": lambda s: mv.solve_mixed(s, mv.zero_pure_feedback(s.horizon, s.num_assets)),
    }[solver](spec)
    assert data["start_stage"] == t
    assert data["gains"] == solution.policy.gains.tolist() and data["offsets"] == solution.policy.offsets.tolist()
    trace = {f.name: getattr(solution.trace, f.name) for f in dataclasses.fields(solution.trace)}
    trace["gain_eigenvalues"] = solution.gain_eigenvalues(spec)
    assert sorted(data["trace"]) == sorted(trace)
    for name, values in trace.items():
        if name == "stage_ok":
            assert data["trace"][name] == values.tolist()
            continue
        assert data["trace"][name][t:] == values[t:].tolist(), name
        assert all(row is None or set(row) == {None} for row in data["trace"][name][:t]), name


def test_solve_mixed_phi_file(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(np.zeros((4, 3)).tolist()))
    assert main(["solve-mixed", "--phi", str(phi), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    open_loop = mv.solve_open_loop(mv.get_preset(PRESET))
    assert np.allclose(data["gains"], open_loop.policy.gains, atol=1e-10)


def test_solve_mixed_bad_phi_exits_2(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    for content in ([[0.0, 0.0]], {"a": 1}):
        phi.write_text(json.dumps(content))
        assert main(["solve-mixed", "--phi", str(phi)]) == 2
        assert "strategy part" in capsys.readouterr().err


def test_nonexistent_market_exits_3(range_fail_market, capsys):
    assert main(["solve-open-loop", "--market", range_fail_market]) == 3
    out = capsys.readouterr().out
    assert "range_condition" in out and "stage 1" in out


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["solve-open-loop", "--market", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_market_path_exits_2(tmp_path):
    assert main(["solve-open-loop", "--market", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--paths", "1"], "--paths must be at least 2"),
        (["batch", "--draws", "0"], "--draws must be at least 1"),
        (["verify", "--seed", "-1"], "--seed must be at least 0"),
        (["simulate", "--seed", "-1"], "--seed must be at least 0"),
        (["batch", "--seed", "-1"], "--seed must be at least 0"),
        (["solve-mixed", "--phi", "sample", "--seed", "-1"], "--seed must be at least 0"),
    ],
    ids=[
        "paths", "draws", "verify-seed", "simulate-seed", "batch-seed", "solve-mixed-seed",
    ],
)
def test_bad_flag_value_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _preset_market_file(path, **overrides):
    """The bundled example's stage-0 moments as a market JSON file, with overrides."""
    spec = mv.get_preset(PRESET)
    data = spec.to_json_dict()
    data.update(
        riskless=float(spec.riskless[0]),
        mean_returns=spec.mean_returns[0].tolist(),
        return_cov=spec.return_cov[0].tolist(),
    )
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--market", "LONG"], 2),
        (["simulate", "--distribution", "tree", "--market", "LONG", "--paths", "10000", "--format", "json"], 0),
    ],
    ids=["verify-leaves", "simulate-leaves"],
)
def test_tree_size_limits_exit_2(argv, code, tmp_path, capsys):
    # 12 stages of 7 atoms give 7**12 leaf paths, above the cap of verify's node walk;
    # simulate's exact cost reads the moment pass, which has no cap
    long_market = _preset_market_file(tmp_path / "long.json", horizon=12)
    assert main([long_market if arg == "LONG" else arg for arg in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("error:")
    else:
        record = json.loads(captured.out)
        assert abs(record["cost"] - record["cost_exact"]) <= 4 * record["se_cost"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--x", "1e160"],
        ["simulate", "--x", "1e308", "--paths", "100"],
        ["simulate", "--x", "1e308", "--paths", "100", "--distribution", "tree"],
    ],
    ids=["verify", "simulate-gaussian", "simulate-tree"],
)
def test_wealth_whose_cost_overflows_exits_2(argv, capsys):
    # a cost or moment beyond a float is invalid input, not a FAIL, a NaN or a RuntimeWarning
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"wealth {float(argv[2]):g}" in captured.err and "overflow" in captured.err


def test_negative_wealth_in_exponent_form_is_read_after_an_equals_sign(capsys):
    # argparse may read "--x -1e-3" as a missing value; "--x=-1e-3" always reaches the command
    assert main(["solve-open-loop", "--x=-1e-3"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--x=-1e-3", "--paths", "100", "--format", "json"]) == 0
    spec = mv.with_initial_state(mv.get_preset(PRESET), x=-1e-3)
    expected = mv.simulate_monte_carlo(spec, mv.solve_open_loop(spec), 100, seed=0)
    assert json.loads(capsys.readouterr().out)["mean_terminal"] == expected.mean_terminal


def _scaled_market(**overrides):
    """A 3-stage, 2-asset market with a full-rank covariance, with overrides."""
    market = dict(horizon=3, num_assets=2, riskless=1.02, mean_returns=[1.05, 1.03], mu1=1, mu2=1)
    market["return_cov"] = [[0.01, 0], [0, 0.02]]
    return {**market, **overrides}


# valid markets whose recursion leaves the float range
_FLOAT_RANGE_MARKETS = {
    "mu-1e300": _scaled_market(mu1=1e300, mu2=1e300),
    "riskless-1e-200": _scaled_market(riskless=1e-200),
    "riskless-1e10": _scaled_market(horizon=40, riskless=1e10, mean_returns=[1e10 + 1, 1e10]),
    "mean-1e200": _scaled_market(mean_returns=[1e200, 1.03]),
    "cov-1e-160": _scaled_market(return_cov=[[1e-160, 0], [0, 2e-160]]),
    "cov-1e-310": _scaled_market(horizon=2, return_cov=[[1e-310, 0], [0, 2e-310]]),
    # not valid: an indefinite stage whose eigenvalues overflow is not PSD
    "cov-indefinite-1e308": _scaled_market(
        horizon=2, return_cov=[[[0.02, 0], [0, 0.03]], [[1.5e308, 1.5e308], [1.5e308, -1.5e308]]]
    ),
}
_FLOAT_RANGE_COMMANDS = {
    "solve-open-loop": ["solve-open-loop"],
    "solve-feedback": ["solve-feedback"],
    "solve-mixed": ["solve-mixed", "--phi", "sample"],
    "batch": ["batch", "--draws", "3"],
    "simulate": ["simulate", "--solver", "feedback", "--paths", "1000"],
    "verify": ["verify"],
    "solve-feedback-from-1": ["solve-feedback", "--t", "1"],
}
# exit codes of the first six commands, in order
_FLOAT_RANGE_CODES = {
    "mu-1e300": (0, 2, 0, 0, 2, 2),
    "riskless-1e-200": (2, 0, 0, 0, 0, 2),
    "riskless-1e10": (2, 2, 2, 2, 2, 2),
    "mean-1e200": (2, 2, 2, 2, 2, 2),
    "cov-1e-160": (0, 2, 0, 0, 2, 2),
}


@pytest.mark.parametrize(
    "market, command, code",
    [
        (market, command, code)
        for market, codes in _FLOAT_RANGE_CODES.items()
        for command, code in zip(list(_FLOAT_RANGE_COMMANDS)[:6], codes)
    ]
    # the 2-stage subnormal covariance: stage 0's gain matrix overflows, and
    # from --t 1 the weights carried back from stage 1 do
    + [("cov-1e-310", "solve-feedback", 2), ("cov-1e-310", "solve-feedback-from-1", 2)]
    + [("cov-indefinite-1e308", "solve-feedback", 2), ("cov-indefinite-1e308", "verify", 2)],
)
def test_values_out_of_the_float_range_exit_2(market, command, code, tmp_path, capsys):
    # an overflow or underflow on valid input is a validation error, never exit 1, a
    # nonexistence report or a RuntimeWarning; the recursion's renormalization would solve these
    path = tmp_path / "market.json"
    path.write_text(json.dumps(_FLOAT_RANGE_MARKETS[market]))
    assert main(_FLOAT_RANGE_COMMANDS[command] + ["--market", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("error:" in err) == (code == 2)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"horizon": 4.7}, "horizon must be a whole number, got 4.7"),
        ({"initial_time": 1.9}, "initial_time must be a whole number, got 1.9"),
        ({"horizon": True}, "horizon must be a whole number, got True"),
        ({"intial_wealth": 5.0}, "unknown keys: intial_wealth"),
    ],
    ids=["fractional-horizon", "fractional-initial-time", "bool-horizon", "misspelled-key"],
)
def test_malformed_market_json_exits_2(overrides, message, tmp_path, capsys):
    # truncating a count or ignoring a misspelled key would solve a market other than the one written
    market = _preset_market_file(tmp_path / "market.json", **overrides)
    assert main(["solve-open-loop", "--market", market]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"mean_returns": [[1.05, 1.03], [1.05]]}, "mean_returns"),
        ({"riskless": "abc"}, "riskless"),
        ({"return_cov": [[0.0146, "x", 0.0145], [0.0187, 0.0854, 0.0104], [0.0145, 0.0104, 0.0289]]}, "return_cov"),
        ({"mean_returns": {"a": 1}}, "mean_returns"),
        # fails before allocating: the scalar riskless cannot span 1e300 stages
        ({"horizon": 1e300}, "riskless"),
    ],
    ids=["ragged-mean", "string-riskless", "string-covariance-entry", "object-mean", "huge-horizon"],
)
def test_malformed_array_field_exits_2(overrides, field, tmp_path, capsys):
    market = _preset_market_file(tmp_path / "market.json", **overrides)
    assert main(["solve-open-loop", "--market", market]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"malformed array field {field}: " in captured.err


def test_market_warnings_logged_not_printed(tmp_path, monkeypatch, capsys):
    market = _preset_market_file(tmp_path / "riskless1.json", riskless=1.0)
    argv = ["solve-open-loop", "--market", market, "--format", "csv"]
    assert main(argv) == 0
    warned = capsys.readouterr()
    assert "WARNING mvequil: riskless return <= 1 at stage 0" in warned.err
    monkeypatch.setenv("MV_EQ_LOG", "ERROR")
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert warned.out == quiet.out


def test_verify_preset_passes(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    assert main(["verify", "--market", PRESET, "--out", str(out_path)]) == 0
    console = capsys.readouterr().out
    assert console.count("PASS") == 3
    lines = out_path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    summaries = [r for r in records if r.get("summary")]
    assert len(summaries) == 3
    assert all(s["passed"] for s in summaries)
    semantics = {r["semantics"] for r in records if not r.get("summary")}
    assert semantics == {"open_loop", "feedback", "mixed"}


@pytest.mark.parametrize("scale", SMALL_SCALES + TINY_SCALES)
def test_verify_small_scale_market_passes(tmp_path, capsys, scale):
    # the rank rule is relative to the largest eigenvalue: 5 atoms per stage, 31 nodes
    market = tmp_path / "market.json"
    market.write_text(mv.dump_market_spec(small_scale_market(scale)))
    assert main(["verify", "--market", str(market)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" min_gap=")[0] for line in lines] == [
        f"{name}: PASS nodes=31" for name in ("open-loop", "feedback", "mixed")
    ]


def test_simulate_tiny_covariance_keeps_the_spread(tmp_path, capsys):
    # the spread is 1e-50 of the mean: whole wealths would keep only its rounding noise
    market = tmp_path / "market.json"
    market.write_text(mv.dump_market_spec(small_scale_market(1e-100)))
    assert main(["simulate", "--market", str(market), "--paths", "1000", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert all(np.isfinite(record[key]) and record[key] > 0 for key in ("se_mean", "se_var"))
    # on the tree law, the exact cost from the moment pass keeps it too
    tree = ["--solver", "feedback", "--distribution", "tree", "--paths", "20000", "--seed", "1"]
    assert main(["simulate", "--market", str(market), *tree, "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["cost"] - record["cost_exact"]) <= 4 * record["se_cost"]


def test_verify_tree_does_not_depend_on_the_seed(tmp_path):
    # --seed feeds only --phi sample: the tree, and so every report, is the same under any seed
    reports = []
    for seed in ("0", "5"):
        out_path = tmp_path / f"reports-{seed}.jsonl"
        assert main(["verify", "--phi", "zero", "--seed", seed, "--out", str(out_path)]) == 0
        reports.append(out_path.read_bytes())
    assert reports[0] == reports[1]


def test_verify_nonexistent_market_exits_3(range_fail_market):
    assert main(["verify", "--market", range_fail_market]) == 3


def test_verify_checks_every_notion_that_exists(tmp_path, capsys):
    market, out_path = tmp_path / "market.json", tmp_path / "reports.jsonl"
    market.write_text(mv.dump_market_spec(feedback_only_market()))
    assert main(["verify", "--market", str(market), "--out", str(out_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["open-loop", "feedback", "mixed"]
    assert lines[0].startswith("open-loop: no solution: range_condition failed at stage 0")
    assert lines[1].startswith("feedback: PASS nodes=4 ")
    assert lines[2].startswith("mixed: no solution: gain_solvability failed at stage 0")
    *reports, summary = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(reports) == 4 and {r["semantics"] for r in reports} == {"feedback"}
    assert summary == {"count": 4, "min_gap": 0.0, "passed": True, "summary": True}


def test_simulate_tree_pretty(capsys):
    rc = main(["simulate", "--paths", "5000", "--seed", "3", "--distribution", "tree"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact cost on the sampling tree" in out
    assert "cost:" in out


def test_simulate_csv_deterministic(tmp_path):
    args = ["simulate", "--paths", "4000", "--seed", "9", "--format", "csv"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_solver_choice(capsys):
    rc = main(["simulate", "--solver", "mixed", "--phi", "sample", "--paths", "2000", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["solver"] == "mixed"
    assert data["n_paths"] == 2000


def test_batch_csv_shape(capsys):
    assert main(["batch", "--draws", "4", "--seed", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["draw", "phi_seed", "status", "stage"]
    assert header[4:] == [f"gain_eig_{i}" for i in range(3)] + ["stage_ok"]
    solved = [line for line in lines[1:] if ",solved," in line]
    assert len(solved) == 4 * 4  # four draws, four stages each


def test_batch_deterministic(tmp_path):
    args = ["batch", "--draws", "3", "--seed", "5"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_reproduce_example_exits_4_on_feedback_rows(capsys):
    # the bundled feedback reference table for stages 0-2 is not a fixed point
    # of the deviation test, so faithful reproduction must flag it
    rc = main(["reproduce-example"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "MISMATCH feedback" in out
    assert "MISMATCH open-loop" not in out
    assert "MISMATCH mixed" not in out
    assert out.count("MISMATCH") == 15
    assert "0.4739" in out and "2.7381" in out


def test_tolerance_flags_are_rejected():
    # the range and PSD tolerances are constants of mvequil.linalg
    with pytest.raises(SystemExit) as exc:
        main(["solve-feedback", "--tol-psd", "1e-10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-open-loop", "--seed", "3"],
        ["solve-feedback", "--seed", "3"],
        ["verify", "--format", "json"],
        ["batch", "--format", "json"],
        ["batch", "--format", "pretty"],
        ["verify", "--atoms", "3"],
        ["simulate", "--atoms", "3"],
    ],
    ids=[
        "solve-open-loop-seed", "solve-feedback-seed", "verify-format", "batch-json", "batch-pretty",
        "verify-atoms", "simulate-atoms",
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_reproduce_example_takes_no_options(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-example", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_out_file_writing(tmp_path):
    target = tmp_path / "table.csv"
    assert main(["solve-open-loop", "--format", "csv", "--out", str(target)]) == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 5


def test_t_flag_restricts_stages(capsys):
    assert main(["solve-open-loop", "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "  2 " in out and "  3 " in out
    assert "  0 " not in out


def test_log_level_from_env(monkeypatch, capsys):
    monkeypatch.setenv("MV_EQ_LOG", "DEBUG")
    assert main(["solve-open-loop"]) == 0
    assert logging.getLogger().level == logging.DEBUG
    monkeypatch.delenv("MV_EQ_LOG")
    assert main(["solve-open-loop"]) == 0
    assert logging.getLogger().level == logging.WARNING
    capsys.readouterr()


@pytest.mark.parametrize("name", ["basic_format", "10"])
def test_log_level_that_is_not_a_level_name_falls_back_to_warning(name, monkeypatch, capsys):
    monkeypatch.setenv("MV_EQ_LOG", name)
    assert main(["solve-open-loop"]) == 0
    assert logging.getLogger().level == logging.WARNING
    assert "open-loop equilibrium control" in capsys.readouterr().out


def test_pretty_table_keeps_its_columns_for_huge_gains(tmp_path, capsys):
    # a 1e-310 covariance gives a gain near 1.5e308, too wide for four decimals
    market = tmp_path / "subnormal.json"
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.02,
        mean_returns=[1.05, 1.03],
        return_cov=[[1e-310, 0], [0, 2e-310]],
        mu1=1,
        mu2=1,
    )
    market.write_text(mv.dump_market_spec(spec))
    assert main(["solve-open-loop", "--market", str(market)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    assert "1.50e+308" in rows[1]


_IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import mvequil.cli
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before} - sys.stdlib_module_names)))
"""


def test_cli_imports_no_package_but_numpy():
    # start-up time is mostly import time, and scipy or hypothesis alone would add a fifth of it
    src = str(Path(mv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _IMPORTED_PACKAGES], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["mvequil", "numpy"]
