"""The benchmark's tracer still counts what the benchmark reports from the package."""

from pathlib import Path

import mvequil

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
