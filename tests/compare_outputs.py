"""Compare what two source trees of mvequil print and return, on one fixed corpus.

    python tests/compare_outputs.py PARENT_TREE [--only MARKET ...]

PARENT_TREE is compared with the tree holding this script. Each tree runs the
corpus in its own Python process, which imports that tree's src/ and nothing else of
it. The corpus is every CLI command in every format (solve-* as pretty, csv
and json; verify with its JSONL reports; simulate on both laws; batch;
reproduce-example) on each market from t = 0 and from t = 1, plus library
calls: each notion's gains, offsets and trace or nonexistence report, and the
oracle's exact cost, spike cost, best deviation, verification and Monte
Carlo summaries. Every outcome that raises is kept as its error message.

The markets are written once, here, so both trees read the same files: the
bundled preset, tests/instgen.random_market 0-19, off_range_market,
feedback_only_market, small_scale_market at 1e-8 and 1e-150, the cli-batch
and verify-tree markets of benchmarks/workloads.py at seed 0, the (250, 50)
market of solve-large at seed 7 (simulate with 1000 paths) and the long
market (the same generator at seed 3, N = 7000, m = 3, full rank).

The report gives, per CLI output (stdout, stderr and the --out file),
identical bytes or the largest relative difference of each numeric field
(a JSON key, a CSV column, or a number's place in a line of text), and
exit codes; library outcomes are compared bitwise, with the same summary.
The exit status is 0 when every output and outcome is identical, 1
otherwise. Nothing is written outside a temporary directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PRESET = "li-duan-example-2"
STARTS = (0, 1)


def _instgen(name, *args):
    import instgen

    return getattr(instgen, name)(*args).to_json_dict()


def _workloads():
    sys.path.insert(0, str(HERE.parent / "benchmarks"))
    import workloads

    return workloads


def _long_market():
    workloads = _workloads()
    return workloads.random_market(np.random.default_rng(3), 7000, 3, degenerate=False)


# name -> (the raw market's maker, or None for the preset; simulate's path count)
MARKETS = {"preset": (None, 2000)}
MARKETS.update({f"random-{seed}": (lambda seed=seed: _instgen("random_market", seed), 2000) for seed in range(20)})
MARKETS.update(
    {
        "off-range": (lambda: _instgen("off_range_market"), 2000),
        "feedback-only": (lambda: _instgen("feedback_only_market"), 2000),
        "small-1e-8": (lambda: _instgen("small_scale_market", 1e-8), 2000),
        "small-1e-150": (lambda: _instgen("small_scale_market", 1e-150), 2000),
    }
)
MARKETS.update({f"cli-batch-{j}": (lambda j=j: _workloads().CliBatch(0).raws[j], 2000) for j in range(4)})
MARKETS.update(
    {
        "verify-tree": (lambda: _workloads().VerifyTree(0).raw, 2000),
        "solve-large": (lambda: _workloads().SolveLarge(7).raw, 1000),
        "long": (_long_market, 1000),
    }
)


def cli_runs(name: str, source: str, paths: int) -> list[tuple[str, list[str]]]:
    """(run id, argv) of each CLI run on one market; "out.txt" names the --out file."""
    runs = []
    for t in STARTS:
        base = ["--market", source, "--t", str(t)]
        for fmt in ("pretty", "csv", "json"):
            for solver, extra in (
                ("open-loop", []),
                ("feedback", []),
                ("mixed", ["--phi", "zero"]),
                ("mixed", ["--phi", "sample", "--seed", "1"]),
            ):
                runs.append([f"solve-{solver}", *base, *extra, "--format", fmt])
        for phi in (["--phi", "zero"], ["--phi", "sample", "--seed", "1"]):
            runs.append(["verify", *base, *phi, "--out", "out.txt"])
        simulate = ["simulate", *base, "--paths", str(paths), "--seed", "5"]
        for solver in ("open-loop", "feedback", "mixed"):
            for law in ("gaussian", "tree"):
                phi = ["--phi", "sample"] if solver == "mixed" else []
                runs.append([*simulate, "--solver", solver, *phi, "--distribution", law, "--format", "json"])
        for fmt in ("pretty", "csv"):
            runs.append([*simulate, "--solver", "feedback", "--distribution", "tree", "--format", fmt])
        runs.append(["batch", *base, "--draws", "4", "--seed", "3", "--out", "out.txt"])
    return [(f"{name}/{i}", argv) for i, argv in enumerate(runs)]


def build_corpus(work: Path, only: list[str] | None) -> dict:
    """Write each market's JSON under work and return the manifest both trees run.

    The markets come from this tree's tests/instgen.py and benchmarks/workloads.py,
    which import its mvequil.
    """
    sys.path.insert(0, str(HERE.parent / "src"))
    (work / "markets").mkdir(parents=True, exist_ok=True)
    manifest = {"runs": [], "library": []}
    for name, (make, paths) in MARKETS.items():
        if only and name not in only:
            continue
        if make is None:
            source = PRESET
        else:
            source = str(work / "markets" / f"{name}.json")
            raw = {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in make().items()}
            with open(source, "w") as fh:
                json.dump(raw, fh)
        manifest["runs"] += cli_runs(name, source, paths)
        manifest["library"] += [(f"{name}/t={t}", source, t) for t in STARTS]
    if not only or "reproduce-example" in only:
        manifest["runs"].append(("reproduce-example", ["reproduce-example"]))
    return manifest


# --- the worker: runs the manifest in the process of one tree -------------------------------


def _flatten(name: str, value, out: dict) -> None:
    """value as named arrays and strings: dataclasses by field, sequences by index."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            _flatten(f"{name}.{field.name}", getattr(value, field.name), out)
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            _flatten(f"{name}[{i}]", item, out)
    elif isinstance(value, enum.Enum):
        out[name] = f"{type(value).__name__}.{value.name}"
    elif isinstance(value, str):
        out[name] = value
    elif value is None:
        out[name] = "None"
    else:
        out[name] = np.asarray(value)


def _library_case(mv, source: str, t: int) -> dict:
    out = {}

    def record(name, call):
        try:
            value = call()
        except Exception as exc:  # every outcome is compared, errors included
            out[f"{name}.error"] = f"{type(exc).__name__}: {exc}"
            return None
        _flatten(name, value, out)
        return value

    spec = record("spec", lambda: mv.with_initial_state(mv.resolve_market(source), t))
    if spec is None:
        return out
    moments = mv.derive_excess_moments(spec)
    n, m = spec.horizon, spec.num_assets
    solvers = {
        "open_loop": lambda: mv.solve_open_loop(spec, moments),
        "feedback": lambda: mv.solve_feedback(spec, moments),
        "mixed_zero": lambda: mv.solve_mixed(spec, mv.zero_pure_feedback(n, m), moments),
        "mixed_sample": lambda: mv.solve_mixed(spec, mv.sample_pure_feedback(1, n, m), moments),
    }
    tree = record("tree", lambda: mv.build_matched_tree(moments))
    k, x = spec.initial_time, spec.initial_wealth
    for name, solve in solvers.items():
        sol = record(name, solve)
        if not isinstance(sol, mv.EquilibriumSolution):
            continue
        record(f"{name}.gain_eigenvalues", lambda: sol.gain_eigenvalues(spec))
        record(f"{name}.cost_exact", lambda: mv.evaluate_cost_exact(tree, spec, sol))
        record(f"{name}.spike_cost", lambda: mv.spike_cost(tree, spec, sol, k, x, sol.policy.control(k, x)))
        record(f"{name}.best_spike", lambda: mv.best_spike_deviation(tree, spec, sol, k, x))
        record(f"{name}.verify", lambda: mv.verify_equilibrium(tree, spec, sol))
        for law in ("gaussian", tree):
            label = "gaussian" if law == "gaussian" else "tree"
            record(f"{name}.simulate_{label}", lambda: mv.simulate_monte_carlo(spec, sol, 500, 2, law))
    return out


def _run_cli(cli, argv: list[str]) -> dict:
    if os.path.exists("out.txt"):
        os.remove("out.txt")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    out = None
    if os.path.exists("out.txt"):
        with open("out.txt") as fh:
            out = fh.read()
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def worker(tree: Path, manifest_path: Path, out_dir: Path) -> None:
    """Run the manifest with tree's mvequil: runs.jsonl holds the CLI runs, library/ each case."""
    import mvequil as mv
    import mvequil.cli as cli

    if Path(mv.__file__).resolve().parents[2] != tree.resolve():
        raise SystemExit(f"imported mvequil from {mv.__file__}, not from {tree}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    os.chdir(out_dir)
    with open("runs.jsonl", "w") as fh:
        for run_id, argv in manifest["runs"]:
            fh.write(json.dumps({"id": run_id, "argv": argv, **_run_cli(cli, argv)}) + "\n")
    os.makedirs("library", exist_ok=True)
    for i, (case, source, t) in enumerate(manifest["library"]):
        outcome = _library_case(mv, source, t)
        arrays = {key: value for key, value in outcome.items() if isinstance(value, np.ndarray)}
        texts = {key: value for key, value in outcome.items() if isinstance(value, str)}
        np.savez(f"library/{i}.npz", **arrays)
        with open(f"library/{i}.json", "w") as fh:
            json.dump({"case": case, "keys": list(outcome), "texts": texts}, fh)


# --- the comparison ---------------------------------------------------------------------------

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)")


def _rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude: 0 when equal (NaN equals NaN), inf when only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_fields(value, path: str, out: list) -> None:
    """(field, number-or-text) leaves of a parsed JSON value; list indices are dropped from the field."""
    if isinstance(value, dict):
        for key, item in value.items():
            _json_fields(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _json_fields(item, path + "[]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append((path, float(value)))
    else:
        out.append((path, json.dumps(value)))


def _fields(text: str) -> list:
    """The text's (field, value) pairs: as JSON, JSON lines, CSV with a header, or numbers in lines of text."""
    out = []
    try:
        _json_fields(json.loads(text), "", out)
        return out
    except ValueError:
        pass
    lines = text.splitlines()
    try:
        for line in lines:
            _json_fields(json.loads(line), "", out)
        return out
    except ValueError:
        out = []
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) > 1 and len(rows[0]) > 1 and all(len(row) == len(rows[0]) for row in rows):
        for row in rows[1:]:
            for key, cell in zip(rows[0], row):
                try:
                    out.append((key, float(cell)))
                except ValueError:
                    out.append((key, cell))
        return out
    for line in lines:
        numbers = NUMBER.findall(line)
        out.append((NUMBER.sub("#", line).strip(), "skeleton"))
        label = NUMBER.split(line)[0].strip() or "#"
        out += [(f"{label} [{j}]", float(v.replace("Infinity", "inf"))) for j, v in enumerate(numbers)]
    return out


def compare_texts(a: str, b: str) -> dict | None:
    """None for identical text; else each numeric field's largest relative difference,
    or {"text": inf} when anything but a number differs."""
    if a == b:
        return None
    fa, fb = _fields(a), _fields(b)
    if len(fa) != len(fb):
        return {"text": math.inf}
    worst = {}
    for (ka, va), (kb, vb) in zip(fa, fb):
        if ka != kb or isinstance(va, str) != isinstance(vb, str) or (isinstance(va, str) and va != vb):
            return {"text": math.inf}
        if not isinstance(va, str):
            worst[ka] = max(worst.get(ka, 0.0), _rel(va, vb))
    return {key: rel for key, rel in worst.items() if rel > 0} or {"text": math.inf}


def compare_arrays(a: np.ndarray, b: np.ndarray) -> float | None:
    """None when bitwise identical, else the largest relative difference (inf for another shape or type)."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if a.shape != b.shape or a.dtype.kind not in "fiub" or b.dtype.kind not in "fiub":
        return math.inf
    pairs = zip(a.astype(float).ravel().tolist(), b.astype(float).ravel().tolist())
    return max((_rel(x, y) for x, y in pairs), default=0.0)


def _label(argv: list[str], stream: str) -> str:
    """A run's command, its format if it names one, and the stream: "verify out", "solve-feedback json stdout"."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else ""
    return " ".join(filter(None, (argv[0], fmt, stream)))


def _note(fields: dict, key, rel: float, where: str) -> None:
    """Keep a field's largest relative difference, where it is, and the count of outputs it differs in."""
    worst, at, count = fields.get(key, (0.0, where, 0))
    fields[key] = (rel, where, count + 1) if rel > worst else (worst, at, count + 1)


def compare_dirs(a: Path, b: Path) -> dict:
    """The differences between two workers' outputs, with counts of what is identical."""
    cli = {"runs": 0, "outputs": 0, "identical": 0, "fields": {}, "exit": []}
    with open(a / "runs.jsonl") as fa, open(b / "runs.jsonl") as fb:
        for line_a, line_b in zip(fa, fb, strict=True):
            ra, rb = json.loads(line_a), json.loads(line_b)
            cli["runs"] += 1
            if ra["exit"] != rb["exit"]:
                cli["exit"].append(f"{ra['id']} {' '.join(ra['argv'])}: {ra['exit']} -> {rb['exit']}")
            for stream in ("stdout", "stderr", "out"):
                if ra[stream] is None and rb[stream] is None:
                    continue
                cli["outputs"] += 1
                diff = compare_texts(ra[stream] or "", rb[stream] or "")
                if diff is None:
                    cli["identical"] += 1
                for field, rel in (diff or {}).items():
                    _note(cli["fields"], (_label(ra["argv"], stream), field), rel, ra["id"])
    library = {"cases": 0, "outcomes": 0, "identical": 0, "fields": {}}
    for index_a in sorted((a / "library").glob("*.json"), key=lambda path: int(path.stem)):
        index_b = b / "library" / index_a.name
        ja, jb = json.loads(index_a.read_text()), json.loads(index_b.read_text())
        library["cases"] += 1
        with np.load(index_a.with_suffix(".npz")) as za, np.load(index_b.with_suffix(".npz")) as zb:
            for key in dict.fromkeys(ja["keys"] + jb["keys"]):
                library["outcomes"] += 1
                where = ja["case"]
                if key in ja["texts"] or key in jb["texts"]:
                    text_a, text_b = ja["texts"].get(key), jb["texts"].get(key)
                    rel = None if text_a == text_b else math.inf
                    where += f": {text_a!r} -> {text_b!r}"
                elif key in za.files and key in zb.files:
                    rel = compare_arrays(za[key], zb[key])
                else:
                    rel = math.inf
                if rel is None:
                    library["identical"] += 1
                else:
                    _note(library["fields"], re.sub(r"\[\d+\]", "[]", key), rel, where)
    return {"cli": cli, "library": library}


def identical(result: dict) -> bool:
    cli, library = result["cli"], result["library"]
    return cli["identical"] == cli["outputs"] and not cli["exit"] and library["identical"] == library["outcomes"]


def report(result: dict) -> str:
    cli, library = result["cli"], result["library"]
    lines = [
        f"CLI runs: {cli['runs']}; outputs (stdout, stderr, --out file): {cli['outputs']}, "
        f"identical {cli['identical']}, differing {cli['outputs'] - cli['identical']}",
        f"exit codes: {len(cli['exit'])} differ",
    ]
    lines += [f"  {change}" for change in cli["exit"]]
    for (label, field), (rel, where, count) in sorted(cli["fields"].items()):
        lines.append(f"  {label}: {field}: max rel {rel:.3g} (at {where}) in {count} outputs")
    lines.append(
        f"library cases: {library['cases']}; outcomes: {library['outcomes']}, "
        f"identical {library['identical']}, differing {library['outcomes'] - library['identical']}"
    )
    for field, (rel, where, count) in sorted(library["fields"].items()):
        lines.append(f"  {field}: max rel {rel:.3g} (at {where}) in {count} cases")
    return "\n".join(lines)


def compare(parent: Path, only: list[str] | None = None) -> dict:
    """Run the corpus on parent and on this script's tree, each in its own process at once, and compare."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps(build_corpus(work, only)))
        workers = []
        for side, root in (("parent", parent), ("tree", HERE.parent)):
            (work / side).mkdir()
            # the tree's src/ alone; one BLAS thread each, as the two run side by side
            env = {**os.environ, "PYTHONPATH": str(Path(root).resolve() / "src"), "OPENBLAS_NUM_THREADS": "1"}
            env.pop("MV_EQ_LOG", None)
            argv = ["--worker", str(root), str(manifest), str(work / side)]
            workers.append(subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv], env=env))
        codes = [process.wait() for process in workers]
        if any(codes):
            raise RuntimeError(f"a worker failed: exit codes {codes} (parent, tree)")
        return compare_dirs(work / "parent", work / "tree")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # one tree's process, started by compare
        worker(*map(Path, argv[1:]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree to compare against, e.g. a git archive of the parent")
    parser.add_argument(
        "--only", nargs="+", metavar="MARKET", choices=[*MARKETS, "reproduce-example"], help="run these alone"
    )
    args = parser.parse_args(argv)
    result = compare(args.parent, args.only)
    print(report(result))
    return 0 if identical(result) else 1


if __name__ == "__main__":
    sys.exit(main())
