"""Benchmark of mvequil: one process, one client, ops in a closed loop.

    python3 benchmarks/run.py --workload solve-large --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --selfcheck --seed 1

Run from a checkout of the repository; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the environment and the details
behind the metrics; the same record is written under ``benchmarks/out/``.
See ``benchmarks/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3  # set-ups per run; setup_s adds the import time to their median
UNTRACED_SHARE = 1 / 3  # of a traced run, measured with tracing off for the overhead
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# eigendecompositions per preset solve (open-loop, feedback, mixed) when the benchmark was defined
PRESET_EIG_BASELINE = {"open_loop": 8, "feedback": 16, "mixed": 20}
COMMANDS = ("batch", "solve-feedback", "verify", "simulate")


def _import_program():
    """Import mvequil from this checkout's src directory, or exit with code 2."""
    if not (SRC / "mvequil" / "__init__.py").is_file():
        print(f"error: no mvequil package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mvequil

    if Path(mvequil.__file__).resolve().parent != SRC / "mvequil":
        print(f"error: imported mvequil from {mvequil.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return mvequil


# -- measuring ops -----------------------------------------------------------


def run_phase(workload, seconds, first_index, tracer=None):
    """Run whole cycles of ops until ``seconds`` of wall time have passed."""
    from workloads import OpError, WrongOutput

    durations, ok_durations = [], []
    outcomes, errors, extra = Counter(), Counter(), Counter()
    runtime_warnings = 0
    i = first_index
    start = time.perf_counter()
    while True:
        for _ in range(workload.cycle):
            if tracer is not None:
                tracer.begin_op(i)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                t0 = time.perf_counter()
                try:
                    result, error = workload.op(i), None
                except Exception as exc:  # a failed op is counted, not fatal
                    result, error = None, exc
                elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            durations.append(elapsed)
            if error is None:
                try:
                    extra.update(workload.check(i, result))
                    outcome = "ok"
                except OpError as exc:
                    outcome, error = "error", exc
                except WrongOutput as exc:
                    outcome, error = "wrong", exc
            else:
                outcome = "error"
            outcomes[outcome] += 1
            if outcome == "ok":
                ok_durations.append(elapsed)
            else:
                errors[f"{outcome}: {type(error).__name__}: {str(error)[:120]}"] += 1
            i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "durations": durations,
        "ok_durations": ok_durations,
        "outcomes": outcomes,
        "errors": errors,
        "extra": extra,
        "runtime_warnings": runtime_warnings,
        "next_index": i,
        "wall_s": time.perf_counter() - start,
    }


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile with 10 samples beyond it.

    Below 40 samples that percentile falls toward the median, so the highest
    percentile with a quarter of the samples beyond it is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    index = n - 1 - beyond
    return ordered[index], 100.0 * index / (n - 1) if n > 1 else 100.0, beyond


def _div(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def setup(workload_cls, seed, work_dir):
    """Generate inputs, write them, and run one untimed warm-up op; return the workload."""
    workload = workload_cls(seed)
    workload.prepare(work_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            workload.check(0, workload.op(0))
        except Exception:  # the timed ops count and report failures
            pass
    return workload


# -- metrics -------------------------------------------------------------------


def end_to_end_metrics(phase, setup_s):
    ok = phase["ok_durations"]
    p50 = statistics.median(ok) * 1e3 if ok else 0.0
    tail_ms, tail_pct, beyond = tail(ok) if ok else (0.0, 0.0, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms * 1e3, "ms"),
        "ops_per_s": (_div(len(ok), sum(phase["durations"])), "1/s"),
        "success_rate": (_div(len(ok), len(phase["durations"])), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"op_ms_tail": {"percentile": tail_pct, "samples": len(ok), "samples_beyond": beyond}}
    return metrics, detail


def per_layer_metrics(tracer, phase, untraced_phase, preset_eig):
    ops = len(phase["durations"])
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts

    def call_ms(name):
        return _div(total[name], calls[name]) * 1e3

    def per_op(value):
        return _div(value, ops)

    m = {
        "market.make_spec_ms": (call_ms("market.make_market_spec"), "ms"),
        "market.moments_ms": (call_ms("market.derive_excess_moments"), "ms"),
        "market.load_ms": (call_ms("market.load_market_spec"), "ms"),
        "linalg.busy_ms": (per_op(tracer.busy_s["linalg"]) * 1e3, "ms"),
        "linalg.eig_ms": (per_op(tracer.busy_s["numpy"]) * 1e3, "ms"),
        "linalg.eig_count": (per_op(counts["eig.matrices"]), "count"),
        "linalg.pseudoinverse_calls": (per_op(calls["linalg.pseudoinverse"]), "count"),
        "linalg.range_membership_calls": (per_op(calls["linalg.range_membership"]), "count"),
        "linalg.is_psd_calls": (per_op(calls["linalg.is_psd"]), "count"),
    }
    for span, solver in (
        ("open_loop.solve_open_loop", "open_loop"),
        ("feedback.solve_feedback", "feedback"),
        ("mixed.solve_mixed", "mixed"),
    ):
        stages = counts[f"{solver}.ok_stages"]
        m[f"{solver}.solve_ms"] = (call_ms(span), "ms")
        m[f"{solver}.stage_us"] = (_div(counts[f"{solver}.ok_s"], stages) * 1e6, "us")
        m[f"{solver}.self_ms"] = (_div(own[span], calls[span]) * 1e3, "ms")
        m[f"{solver}.eig_per_stage"] = (_div(counts[f"{solver}.ok_eig"], stages), "count")
        m[f"{solver}.nonexistent"] = (per_op(counts[f"{solver}.nonexistent"]), "count")
    m["mixed.failed"] = (per_op(counts["mixed.solve_mixed.raised"]), "count")

    verify, nodes = "oracle.verify_equilibrium", counts["oracle.nodes"]
    m.update(
        {
            "oracle.nodes": (_div(nodes, calls[verify]), "count"),
            "oracle.spike_evals_per_node": (_div(calls["oracle.spike_cost"], nodes), "count"),
            "oracle.suffix_scenarios_per_node": (_div(counts["oracle.suffix_scenarios"], nodes), "count"),
            "oracle.eig_count": (_div(counts["oracle.verify_eig"], calls[verify]), "count"),
            "oracle.verify_ms": (call_ms(verify), "ms"),
            "oracle.node_ms": (_div(total[verify], nodes) * 1e3, "ms"),
            "oracle.tree_ms": (call_ms("oracle.build_matched_tree"), "ms"),
            "oracle.exact_cost_ms": (call_ms("oracle.evaluate_cost_exact"), "ms"),
            "oracle.simulate_ms": (call_ms("oracle.simulate_monte_carlo"), "ms"),
            "oracle.paths_per_s": (_div(counts["oracle.paths"], total["oracle.simulate_monte_carlo"]), "1/s"),
        }
    )
    for command in COMMANDS:
        m[f"cli.command_ms.{command}"] = (
            _div(counts[f"cli.command_s.{command}"], counts[f"cli.command_calls.{command}"]) * 1e3,
            "ms",
        )
    cli_self = sum(seconds for name, seconds in own.items() if name.startswith("cli."))
    m["cli.self_ms"] = (_div(cli_self, calls["cli.main"]) * 1e3, "ms")
    m["cli.output_bytes"] = (per_op(phase["extra"]["cli.output_bytes"]), "bytes")
    m["cli.jsonl_export_ms"] = (call_ms("oracle.export_verification_jsonl"), "ms")
    m["numpy.runtime_warnings"] = (per_op(phase["runtime_warnings"]), "count")
    for solver, eig in preset_eig.items():
        m[f"preset.{solver}_eig"] = (eig, "count")

    traced_p50 = statistics.median(phase["ok_durations"] or [0.0]) * 1e3
    untraced_p50 = statistics.median(untraced_phase["ok_durations"] or [0.0]) * 1e3
    m["trace.untraced_op_ms_p50"] = (untraced_p50, "ms")
    m["trace.traced_op_ms_p50"] = (traced_p50, "ms")
    m["trace.overhead_pct"] = ((_div(traced_p50, untraced_p50) - 1.0) * 100.0, "%")
    return m


def preset_eig_counts(mvequil, tracer):
    """Eigendecompositions per solve of the bundled example market, per solver."""
    spec = mvequil.get_preset("li-duan-example-2")
    moments = mvequil.derive_excess_moments(spec)
    solves = {
        "open_loop": lambda: mvequil.solve_open_loop(spec, moments),
        "feedback": lambda: mvequil.solve_feedback(spec, moments),
        "mixed": lambda: mvequil.solve_mixed(
            spec, mvequil.zero_pure_feedback(spec.horizon, spec.num_assets), moments
        ),
    }
    result = {}
    for solver, solve in solves.items():
        before = tracer.counts["eig.matrices"]
        solve()
        result[solver] = tracer.counts["eig.matrices"] - before
    return result


# -- environment ---------------------------------------------------------------


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's wheels bundle scipy-openblas with prefixed, suffixed symbols
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seeds):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seeds": seeds,
    }


# -- entry points ----------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    mvequil = _import_program()
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - _PROCESS_START
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = setup(workloads.WORKLOADS[name], seed, work_dir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        detail = {"setup_repeats_s": setup_times, "import_s": import_s}
        if trace:
            untraced = run_phase(workload, seconds * UNTRACED_SHARE, 0)
            tracer = Tracer()
            tracer.install(mvequil)
            try:
                preset_eig = preset_eig_counts(mvequil, tracer)
                tracer.reset()
                phase = run_phase(workload, seconds - untraced["wall_s"], untraced["next_index"], tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer_metrics(tracer, phase, untraced, preset_eig)
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_spans(spans_path)
            detail.update(
                spans=str(spans_path.relative_to(ROOT)),
                dropped_spans=tracer.dropped_spans,
                dropped_ops=tracer.dropped_ops,
            )
        else:
            phase = run_phase(workload, seconds, 0)
            metrics, more = end_to_end_metrics(phase, setup_s)
            detail.update(more)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcomes = phase["outcomes"]
    attempted = sum(outcomes.values())
    detail.update(
        ops={"attempted": attempted, **outcomes},
        error_rate=_div(attempted - outcomes["ok"], attempted),
        errors=dict(phase["errors"]),
        measured_s=phase["wall_s"],
    )
    result = {
        "correct": outcomes["wrong"] == 0 and outcomes["ok"] > 0,
        "attempted": attempted,
        "failed": attempted - outcomes["ok"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(workload.seeds),
        "detail": detail,
    }
    (OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def selfcheck(seed, names):
    """Two short traced runs per workload must give identical counters; check the preset counts."""
    ok = True
    for name in names:
        runs = []
        for _ in range(2):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            argv += ["--seed", str(seed), "--seconds", "1", "--trace", "1"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name}: traced run exited {proc.returncode}\n{proc.stderr}")
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        counters = sorted(key for key, v in runs[0].items() if v["unit"] in ("count", "bytes"))
        differing = [key for key in counters if runs[0][key]["value"] != runs[1][key]["value"]]
        ok = ok and not differing
        print(f"{name}: {len(counters)} counters, {'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
        preset = {solver: runs[0][f"preset.{solver}_eig"]["value"] for solver in PRESET_EIG_BASELINE}
        if preset != PRESET_EIG_BASELINE:
            ok = False
            print(f"{name}: preset eigendecompositions {preset}, baseline {PRESET_EIG_BASELINE}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["solve-large", "cli-batch", "verify-tree"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true", help="compare counters of two traced runs")
    args = parser.parse_args(argv)
    if args.selfcheck:
        _import_program()
        names = [args.workload] if args.workload else ["solve-large", "cli-batch", "verify-tree"]
        return selfcheck(args.seed, names)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
