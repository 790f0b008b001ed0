"""The benchmark still runs against the package, and its tracer counts what it reports."""

from pathlib import Path

import pytest

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


# every solve-large solver; one market of cli-batch, which runs batch and solve-feedback
@pytest.mark.parametrize("name, ops", [("solve-large", 4), ("cli-batch", 1), ("verify-tree", 1)])
def test_untraced_ops_of_each_workload_pass_their_checks(name, ops, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    workload = workloads.WORKLOADS[name](0)
    workload.prepare(str(tmp_path))
    for i in range(ops):
        workload.check(i, workload.op(i))  # raises OpError or WrongOutput
