"""The benchmark still runs against the package, and its tracer counts what it reports."""

from pathlib import Path

import pytest

import mvequil
import mvequil.cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_counts_the_nodes_of_one_verify_tree_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer
    import workloads

    workload = workloads.VerifyTree(0)
    workload.prepare(str(tmp_path))
    trace = tracer.Tracer()
    trace.install(mvequil)
    try:
        workload.check(0, workload.op(0))
    finally:
        trace.uninstall()
    # three solvers, 1 + 7 + 49 + 343 nodes each on the (N=4, m=3) tree
    assert trace.counts["oracle.nodes"] == 3 * workload.nodes == 1200
    # simulate's exact cost reads the moment pass: no leaf path is walked, so the
    # spike_evals_per_node and suffix_scenarios_per_node metrics read 0
    assert trace.calls["oracle.evaluate_cost_exact"] == 1
    assert trace.calls["oracle.spike_cost"] == 0 and trace.counts["oracle.suffix_scenarios"] == 0


# the spans whose counters run.py reads, besides the solvers'; the three
# linalg.*_calls spans are left out: their functions no longer exist
READ_SPANS = (
    "market.make_market_spec",
    "market.derive_excess_moments",
    "market.load_market_spec",
    "oracle.verify_equilibrium",
    "oracle.spike_cost",
    "oracle.build_matched_tree",
    "oracle.evaluate_cost_exact",
    "oracle.simulate_monte_carlo",
    "oracle.export_verification_jsonl",
    "cli.main",
)


def test_tracer_wraps_every_function_whose_span_the_benchmark_reads(monkeypatch):
    # a function renamed or moved away would read 0 in its per-layer metrics, silently
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer

    trace = tracer.Tracer()
    trace.install(mvequil)
    try:
        for span in (*tracer.SOLVERS, *READ_SPANS):
            layer, name = span.split(".")
            namespaces = [getattr(mvequil, layer)] + ([mvequil.cli] if span in tracer.SOLVERS else [])
            for namespace in namespaces:
                assert hasattr(getattr(namespace, name, None), "__wrapped__"), f"{namespace.__name__}.{name}"
    finally:
        trace.uninstall()


# every solve-large solver; one market of cli-batch, which runs batch and solve-feedback
@pytest.mark.parametrize("name, ops", [("solve-large", 4), ("cli-batch", 1), ("verify-tree", 1)])
def test_untraced_ops_of_each_workload_pass_their_checks(name, ops, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    workload = workloads.WORKLOADS[name](0)
    workload.prepare(str(tmp_path))
    for i in range(ops):
        workload.check(i, workload.op(i))  # raises OpError or WrongOutput
