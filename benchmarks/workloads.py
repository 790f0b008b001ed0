"""The three benchmark workloads: seeded inputs, one op each, and its output checks.

An op is what one user does and waits for. Ops of a workload run in a fixed
cycle; a run always ends on a whole cycle, so per-op averages of counters
repeat exactly for a given seed.

``op`` is the timed part. ``check`` runs outside the timed interval; it raises
``OpError`` when the program gave no output (an internal-error exit) and
``WrongOutput`` when it gave output that fails a check, and returns per-op
counters for the traced run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import mvequil as mv
import mvequil.cli as mv_cli


class OpError(Exception):
    """The program produced no result (it raised or exited with an internal error)."""


class WrongOutput(Exception):
    """The program produced a result that fails the op's output check."""


def random_market(rng: np.random.Generator, horizon: int, assets: int, degenerate: bool) -> dict:
    """Raw market arrays that satisfy the range condition by construction.

    With ``degenerate`` about 30% of the stages get a rank-deficient
    covariance; each stage's mean excess return is drawn inside the column
    space of that stage's covariance factor.
    """
    riskless = rng.uniform(1.0, 1.1, size=horizon)
    mean_returns = np.empty((horizon, assets))
    cov = np.empty((horizon, assets, assets))
    for k in range(horizon):
        if degenerate and assets > 1 and rng.random() < 0.3:
            rank = int(rng.integers(1, assets))
        else:
            rank = assets
        F = 0.15 * rng.standard_normal((assets, rank))
        C = F @ F.T
        if rank == assets:
            C += 1e-4 * np.eye(assets)
        mean_returns[k] = riskless[k] + 0.5 * (F @ rng.standard_normal(rank))
        cov[k] = C
    return {
        "horizon": horizon,
        "num_assets": assets,
        "riskless": riskless,
        "mean_returns": mean_returns,
        "return_cov": cov,
        "mu1": float(rng.uniform(0.5, 2.0)),
        "mu2": float(rng.uniform(0.5, 2.0)),
    }


def write_market_json(raw: dict, path: str) -> None:
    data = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in raw.items()}
    with open(path, "w") as fh:
        json.dump(data, fh)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``mvequil.cli.main(argv)`` in process, returning the exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = mv_cli.main(argv)
    return code, out.getvalue()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def _require_exit(code: int, allowed: tuple[int, ...], what: str) -> None:
    if code == mv_cli.EXIT_INTERNAL:
        raise OpError(f"{what} exited with an internal error")
    _require(code in allowed, f"{what} exited with {code}")


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class SolveLarge:
    """Library path at (N=250, m=50): spec from raw arrays, moments, one solver."""

    name = "solve-large"
    horizon, assets = 250, 50
    solvers = ("open_loop", "feedback", "mixed_zero", "mixed_sample")
    cycle = len(solvers)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.raw = random_market(rng, self.horizon, self.assets, degenerate=True)
        self.phi_seed = int(rng.integers(2**31))
        self.seeds = {"market": seed, "phi": self.phi_seed}
        self._open_loop = None

    def prepare(self, work_dir: str) -> None:
        self._open_loop = None

    def op(self, i: int):
        spec = mv.make_market_spec(**self.raw)
        moments = mv.derive_excess_moments(spec)
        solver = self.solvers[i % self.cycle]
        if solver == "open_loop":
            return mv.solve_open_loop(spec, moments)
        if solver == "feedback":
            return mv.solve_feedback(spec, moments)
        if solver == "mixed_zero":
            return mv.solve_mixed(spec, mv.zero_pure_feedback(self.horizon, self.assets), moments)
        phi = mv.sample_pure_feedback(self.phi_seed, self.horizon, self.assets)
        return mv.solve_mixed(spec, phi, moments)

    def check(self, i: int, result) -> dict:
        solver = self.solvers[i % self.cycle]
        if isinstance(result, mv.NonexistenceReport):
            if solver == "open_loop":
                self._open_loop = result
            return {}
        policy = result.policy
        _require(
            bool(np.all(np.isfinite(policy.gains)) and np.all(np.isfinite(policy.offsets))),
            f"{solver}: non-finite policy",
        )
        _require(policy.gains.shape == (self.horizon, self.assets), f"{solver}: policy shape")
        if solver == "open_loop":
            self._open_loop = result
        elif solver == "mixed_zero" and self._open_loop is not None:
            # a zero strategy part reduces the mixed solution to the open-loop one
            _require(
                not isinstance(self._open_loop, mv.NonexistenceReport),
                "mixed(zero) solved where open-loop reported nonexistence",
            )
            ref = self._open_loop.policy
            scale = max(1.0, float(np.max(np.abs(ref.gains))), float(np.max(np.abs(ref.offsets))))
            diff = max(
                float(np.max(np.abs(policy.gains - ref.gains))),
                float(np.max(np.abs(policy.offsets - ref.offsets))),
            )
            _require(diff <= 1e-9 * scale, f"mixed(zero) differs from open-loop by {diff:.3e}")
        elif solver == "feedback":
            covw = result.trace.cov_weight
            mow = result.trace.mean_outer_weight
            slack = 1e-10 * np.maximum(1.0, np.abs(covw))
            _require(
                bool(np.all(mow >= -slack) and np.all(covw - mow >= -slack)),
                "feedback weights violate cov_weight >= mean_outer_weight >= 0",
            )
        return {}


class CliBatch:
    """In-process CLI at (N=50, m=10): ``batch`` over 16 draws, then ``solve-feedback``."""

    name = "cli-batch"
    horizon, assets, draws = 50, 10, 16
    cycle = 4  # markets, each with its own batch seed

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.raws = [random_market(rng, self.horizon, self.assets, degenerate=True) for _ in range(self.cycle)]
        self.batch_seeds = [int(s) for s in rng.integers(10**6, size=self.cycle)]
        self.seeds = {"market": seed, "batch": self.batch_seeds}
        self.work_dir = None
        self._first = {}

    def prepare(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self._first = {}
        for j, raw in enumerate(self.raws):
            write_market_json(raw, self._path(j, "market.json"))

    def _path(self, j: int, what: str) -> str:
        return os.path.join(self.work_dir, f"cli-batch-{j}-{what}")

    def op(self, i: int):
        j = i % self.cycle
        market = self._path(j, "market.json")
        batch = run_cli(
            ["batch", "--market", market, "--draws", str(self.draws), "--seed", str(self.batch_seeds[j]),
             "--format", "csv", "--out", self._path(j, "batch.csv")]
        )
        feedback = run_cli(
            ["solve-feedback", "--market", market, "--format", "json", "--out", self._path(j, "feedback.json")]
        )
        return batch, feedback

    def check(self, i: int, result) -> dict:
        j = i % self.cycle
        (batch_code, batch_out), (fb_code, fb_out) = result
        _require_exit(batch_code, (mv_cli.EXIT_OK,), "batch")
        _require_exit(fb_code, (mv_cli.EXIT_OK, mv_cli.EXIT_NONEXISTENT), "solve-feedback")
        batch_bytes = _file_bytes(self._path(j, "batch.csv"))
        self._check_batch_csv(batch_bytes.decode())
        if fb_code == mv_cli.EXIT_NONEXISTENT:
            _require(fb_out.startswith("no solution"), "exit 3 without a nonexistence report")
            fb_bytes = fb_out.encode()
        else:
            fb_bytes = _file_bytes(self._path(j, "feedback.json"))
            data = json.loads(fb_bytes)
            gains = np.asarray(data["gains"], dtype=float)
            _require(data["kind"] == "feedback", "solve-feedback: wrong kind")
            _require(gains.shape == (self.horizon, self.assets), "solve-feedback: gains shape")
            _require(bool(np.all(np.isfinite(gains))), "solve-feedback: non-finite gains")
        # the same flags and seed must give byte-identical output
        first = self._first.setdefault(j, (batch_bytes, fb_bytes))
        _require(first == (batch_bytes, fb_bytes), f"market {j}: output differs from its first op")
        output_bytes = len(batch_bytes) + len(fb_bytes) + len(batch_out) + len(fb_out)
        return {"cli.output_bytes": output_bytes}

    def _check_batch_csv(self, text: str) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        eig_cols = [c for c, name in enumerate(header) if name.startswith("gain_eig_")]
        stage_ok = header.index("stage_ok")
        solved = {}
        nonexistent = set()
        for row in body:
            draw = int(row[0])
            if row[2].startswith("nonexistent:"):
                nonexistent.add(draw)
                continue
            _require(row[2] == "solved", f"batch: unknown status {row[2]!r}")
            _require(all(math.isfinite(float(row[c])) for c in eig_cols), "batch: non-finite eigenvalue")
            _require(row[stage_ok] == "True", "batch: stage_ok false on a solved stage")
            solved.setdefault(draw, []).append(int(row[3]))
        _require(len(eig_cols) == self.assets, "batch: eigenvalue columns")
        _require(set(solved) | nonexistent == set(range(self.draws)), "batch: missing draws")
        expected = list(range(self.horizon))
        _require(all(stages == expected for stages in solved.values()), "batch: stage rows")


class VerifyTree:
    """In-process CLI at full-rank (N=4, m=3): ``verify``, then tree ``simulate``."""

    name = "verify-tree"
    horizon, assets, paths = 4, 3, 100_000
    cycle = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.raw = random_market(rng, self.horizon, self.assets, degenerate=False)
        self.sim_seed = int(rng.integers(10**6))
        self.seeds = {"market": seed, "simulate": self.sim_seed}
        atoms = 2 * self.assets + 1
        self.nodes = sum(atoms**k for k in range(self.horizon))
        self.work_dir = None

    def prepare(self, work_dir: str) -> None:
        self.work_dir = work_dir
        write_market_json(self.raw, self._path("market.json"))

    def _path(self, what: str) -> str:
        return os.path.join(self.work_dir, f"verify-tree-{what}")

    def op(self, i: int):
        market = self._path("market.json")
        verify = run_cli(["verify", "--market", market, "--out", self._path("reports.jsonl")])
        simulate = run_cli(
            ["simulate", "--market", market, "--solver", "feedback", "--distribution", "tree",
             "--paths", str(self.paths), "--seed", str(self.sim_seed), "--format", "json",
             "--out", self._path("simulate.json")]
        )
        return verify, simulate

    def check(self, i: int, result) -> dict:
        (verify_code, verify_out), (sim_code, sim_out) = result
        _require_exit(verify_code, (mv_cli.EXIT_OK,), "verify")
        _require_exit(sim_code, (mv_cli.EXIT_OK,), "simulate")
        reports_bytes = _file_bytes(self._path("reports.jsonl"))
        records = [json.loads(line) for line in reports_bytes.decode().splitlines()]
        summaries = [r for r in records if r.get("summary")]
        _require(len(summaries) == 3, f"verify: {len(summaries)} summaries, expected 3")
        _require(
            all(s["passed"] and s["count"] == self.nodes for s in summaries),
            f"verify: a solver failed or did not cover {self.nodes} nodes",
        )
        reports = [r for r in records if not r.get("summary")]
        _require(len(reports) == 3 * self.nodes, f"verify: {len(reports)} reports")
        _require(all(r["passed"] for r in reports), "verify: a report did not pass")
        sim_bytes = _file_bytes(self._path("simulate.json"))
        sim = json.loads(sim_bytes)
        _require(
            all(math.isfinite(sim[key]) for key in ("cost", "cost_exact", "se_cost")),
            "simulate: non-finite estimate",
        )
        _require(
            abs(sim["cost"] - sim["cost_exact"]) <= 4 * sim["se_cost"],
            f"simulate: cost {sim['cost']} is more than 4 se from exact {sim['cost_exact']}",
        )
        output_bytes = len(reports_bytes) + len(sim_bytes) + len(verify_out) + len(sim_out)
        return {"cli.output_bytes": output_bytes}


WORKLOADS = {w.name: w for w in (SolveLarge, CliBatch, VerifyTree)}
