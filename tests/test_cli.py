"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import logging

import numpy as np
import pytest

import mvequil as mv
from mvequil.cli import main

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


def test_solve_mixed_phi_file(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(np.zeros((4, 3)).tolist()))
    assert main(["solve-mixed", "--phi", str(phi), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    open_loop = mv.solve_open_loop(mv.get_preset(PRESET))
    assert np.allclose(data["gains"], open_loop.policy.gains, atol=1e-10)


def test_solve_mixed_bad_phi_exits_2(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps([[0.0, 0.0]]))
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
        (["solve-open-loop", "--tol-range", "-1.0"], "tolerances must be positive and finite"),
        (["solve-open-loop", "--tol-psd", "0"], "tolerances must be positive and finite"),
        (["solve-open-loop", "--tol-range", "nan"], "tolerances must be positive and finite"),
        (["solve-feedback", "--tol-psd", "nan"], "tolerances must be positive and finite"),
        (["solve-open-loop", "--tol-range", "inf"], "tolerances must be positive and finite"),
        (["simulate", "--paths", "1"], "--paths must be at least 2"),
        (["batch", "--draws", "0"], "--draws must be at least 1"),
        (["verify", "--atoms", "0"], "--atoms must be at least 1"),
        (["verify", "--seed", "-1"], "--seed must be at least 0"),
        (["simulate", "--seed", "-1"], "--seed must be at least 0"),
        (["batch", "--seed", "-1"], "--seed must be at least 0"),
        (["solve-mixed", "--phi", "sample", "--seed", "-1"], "--seed must be at least 0"),
    ],
    ids=[
        "tol-range", "tol-psd", "tol-range-nan", "tol-psd-nan", "tol-range-inf", "paths", "draws", "atoms",
        "verify-seed", "simulate-seed", "batch-seed", "solve-mixed-seed",
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
    "argv",
    [
        ["verify", "--atoms", "3"],
        ["simulate", "--distribution", "tree", "--atoms", "3", "--paths", "100"],
        ["verify", "--market", "LONG"],
        ["simulate", "--distribution", "tree", "--market", "LONG", "--paths", "100"],
    ],
    ids=["verify-atoms", "simulate-atoms", "verify-leaves", "simulate-leaves"],
)
def test_tree_size_limits_exit_2(argv, tmp_path, capsys):
    # 12 stages of 7 atoms give 7**12 leaf paths, above the exact-evaluation cap
    long_market = _preset_market_file(tmp_path / "long.json", horizon=12)
    assert main([long_market if arg == "LONG" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_verify_nonexistent_market_exits_3(range_fail_market):
    assert main(["verify", "--market", range_fail_market]) == 3


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
    assert "gain_eig_0" in header and "psd_ok" in header
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
