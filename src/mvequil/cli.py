"""Command-line surface: solve, verify, simulate, reproduce, batch.

The parsed ``argparse.Namespace`` is the configuration: ``build_parser`` states
every option and default once, and each subcommand binds its handler (the
``solve-*`` commands also their solver and title) with ``set_defaults``.
``reproduce-example`` takes no options. Market warnings go to the ``mvequil``
logger, whose level ``MV_EQ_LOG`` sets.

Exit codes: 0 success, 2 invalid input (including tree-size limits), 3 no
solution exists (the report is printed), 4 a verification or reproduction
check failed, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from . import reference
from .feedback import solve_feedback
from .market import (
    ValidationError,
    derive_excess_moments,
    get_preset,
    resolve_market,
    with_initial_state,
)
from .mixed import solve_mixed, solve_mixed_batch
from .open_loop import solve_open_loop
from .oracle import (
    EquilibriumStructureError,
    build_matched_tree,
    evaluate_cost_exact,
    export_verification_jsonl,
    simulate_monte_carlo,
    verification_summary,
    verify_equilibrium,
)
from .policy import (
    InternalInconsistencyError,
    NonexistenceReport,
    PureFeedbackPart,
    load_pure_feedback,
    sample_pure_feedback,
    zero_pure_feedback,
)
from .recursion import trace_csv

log = logging.getLogger("mvequil")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NONEXISTENT = 3
EXIT_VERIFICATION = 4


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--market",
        default=reference.EXAMPLE_PRESET,
        help="market JSON path or preset name (default: bundled example)",
    )
    shared.add_argument("--t", type=int, default=None, help="initial stage (default: market's)")
    shared.add_argument("--x", type=float, default=None, help="initial wealth (default: market's)")
    shared.add_argument("--out", default=None, help="write the primary output to this file")
    # only the commands that read a seed or an output format take these
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=["pretty", "csv", "json"], default="pretty", dest="fmt")

    parser = argparse.ArgumentParser(
        prog="mvequil",
        description="Time-consistent solutions of multi-period mean-variance portfolio selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for solver, help_text, title in (
        ("open-loop", "solve the open-loop equilibrium control", "open-loop equilibrium control"),
        ("feedback", "solve the feedback equilibrium strategy", "feedback equilibrium strategy"),
        ("mixed", "solve the mixed equilibrium for a strategy part", "mixed equilibrium, applied policy"),
    ):
        parents = [shared, seeded, formatted] if solver == "mixed" else [shared, formatted]
        p = sub.add_parser(f"solve-{solver}", parents=parents, help=help_text)
        p.set_defaults(handler=_cmd_solve, solver=solver, title=f"{title} u_k = K_k x + c_k")
    # p is solve-mixed, the last of the three
    p.add_argument("--phi", default="zero", help="strategy part: JSON path, 'sample', or 'zero'")

    p = sub.add_parser(
        "verify", parents=[shared, seeded], help="deviation-test all three solvers on a matched tree"
    )
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--phi", default="zero", help="strategy part for the mixed solver")

    p = sub.add_parser(
        "simulate", parents=[shared, seeded, formatted], help="Monte Carlo cost estimate for one policy"
    )
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--phi", default="zero", help="strategy part when --solver mixed")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--solver", choices=["open-loop", "feedback", "mixed"], default="open-loop")
    p.add_argument("--distribution", choices=["gaussian", "tree"], default="gaussian")

    p = sub.add_parser(
        "reproduce-example",
        help="run all three solvers on the bundled example and compare to the reference tables",
    )
    p.set_defaults(handler=_cmd_reproduce_example)

    p = sub.add_parser(
        "batch", parents=[shared, seeded], help="mixed solves over seeded random strategy draws"
    )
    p.set_defaults(handler=_cmd_batch)
    p.add_argument("--format", choices=["csv"], default="csv", dest="fmt")
    p.add_argument("--draws", type=int, default=10)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Range checks argparse's types do not state; options the command lacks are skipped."""
    for name, low in (("paths", 2), ("draws", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValidationError(f"--{name} must be at least {low}")


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(args: argparse.Namespace):
    spec = resolve_market(args.market)
    for warning in spec.warnings:
        log.warning(warning)
    return with_initial_state(spec, args.t, args.x)


def _resolve_phi(args: argparse.Namespace, spec) -> PureFeedbackPart:
    if args.phi == "zero":
        return zero_pure_feedback(spec.horizon, spec.num_assets)
    if args.phi == "sample":
        return sample_pure_feedback(args.seed, spec.horizon, spec.num_assets)
    try:
        return load_pure_feedback(args.phi, spec.horizon, spec.num_assets)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot load strategy part from {args.phi!r}: {exc}") from exc


def _cell(v: float) -> str:
    """v in a 10-character column: four decimals where they fit, else a general format."""
    text = f"{v:10.4f}"
    return text if len(text) <= 10 else f"{v:10.2e}"


def _policy_pretty(title: str, policy, extra_lines=()) -> str:
    m = policy.num_assets
    lines = [title]
    header = "  k"
    header += "".join(f"{f'K_{i + 1}':>10}" for i in range(m))
    header += "".join(f"{f'c_{i + 1}':>10}" for i in range(m))
    lines.append(header)
    for k in range(policy.start_stage, policy.horizon):
        row = f"{k:3d}"
        row += "".join(_cell(v) for v in policy.gain(k))
        row += "".join(_cell(v) for v in policy.offset(k))
        lines.append(row)
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


def _json_list(values: np.ndarray) -> list:
    """values as nested lists, NaN (a stage before the start stage) as None: JSON null, not a bare NaN."""
    if values.dtype != float or not np.isnan(values).any():
        return values.tolist()
    return np.where(np.isnan(values), None, values.astype(object)).tolist()


def _solution_json(solution, spec) -> str:
    trace = {f.name: _json_list(getattr(solution.trace, f.name)) for f in dataclass_fields(solution.trace)}
    trace["gain_eigenvalues"] = _json_list(solution.gain_eigenvalues(spec))
    data = {
        "kind": solution.policy.kind.value,
        "start_stage": solution.policy.start_stage,
        "gains": solution.policy.gains.tolist(),
        "offsets": solution.policy.offsets.tolist(),
        "trace": trace,
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _solve(solver: str, args: argparse.Namespace, spec, moments):
    """Run one solver: "open-loop", "feedback" or "mixed" (with the --phi strategy part)."""
    if solver == "open-loop":
        return solve_open_loop(spec, moments)
    if solver == "feedback":
        return solve_feedback(spec, moments)
    return solve_mixed(spec, _resolve_phi(args, spec), moments)


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    result = _solve(args.solver, args, spec, derive_excess_moments(spec))
    if isinstance(result, NonexistenceReport):
        print(result.describe())
        return EXIT_NONEXISTENT
    if args.fmt == "csv":
        text = trace_csv(result, spec)
    elif args.fmt == "json":
        text = _solution_json(result, spec)
    else:
        text = _policy_pretty(args.title, result.policy)
    _emit(text, args)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    """One line per notion: its verification, or its nonexistence report.

    Exits 4 if a solution fails verification, else 3 if a notion has no
    solution, else 0; --out gets the reports of the verified notions.
    """
    spec = _load_spec(args)
    moments = derive_excess_moments(spec)
    tree = build_matched_tree(moments)

    code = EXIT_OK
    lines = []
    blocks = []
    for name in ("open-loop", "feedback", "mixed"):
        solution = _solve(name, args, spec, moments)
        if isinstance(solution, NonexistenceReport):
            lines.append(f"{name}: {solution.describe()}")
            code = max(code, EXIT_NONEXISTENT)  # EXIT_VERIFICATION outranks it
            continue
        result = verify_equilibrium(tree, spec, solution)
        summary = verification_summary(result)
        if not summary["passed"]:
            code = EXIT_VERIFICATION
        lines.append(
            f"{name}: {'PASS' if summary['passed'] else 'FAIL'}"
            f" nodes={summary['count']} min_gap={summary['min_gap']:.3e}"
        )
        if args.out:
            blocks.append(export_verification_jsonl(result))
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(blocks)
    print("\n".join(lines))
    return code


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    moments = derive_excess_moments(spec)
    solved = _solve(args.solver, args, spec, moments)
    if isinstance(solved, NonexistenceReport):
        print(solved.describe())
        return EXIT_NONEXISTENT

    dist, exact = "gaussian", None
    if args.distribution == "tree":
        dist = build_matched_tree(moments)
        exact = evaluate_cost_exact(dist, spec, solved)
    summary = simulate_monte_carlo(spec, solved, n_paths=args.paths, seed=args.seed, distribution=dist)

    record = {f.name: getattr(summary, f.name) for f in dataclass_fields(summary)}
    record["solver"] = args.solver
    if exact is not None:
        record["cost_exact"] = exact
    if args.fmt == "json":
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    elif args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        keys = sorted(record)
        writer.writerow(keys)
        writer.writerow([record[key] for key in keys])
        text = buf.getvalue()
    else:
        lines = [
            f"policy: {args.solver}, distribution: {summary.distribution}, "
            f"paths: {summary.n_paths}, seed: {summary.seed}",
            f"mean terminal wealth: {summary.mean_terminal:.6f} (se {summary.se_mean:.2e})",
            f"terminal wealth variance: {summary.var_terminal:.6f} (se {summary.se_var:.2e})",
            f"cost: {summary.cost:.6f} (se {summary.se_cost:.2e})",
        ]
        if exact is not None:
            lines.append(f"exact cost on the sampling tree: {exact:.6f}")
        text = "\n".join(lines) + "\n"
    _emit(text, args)
    return EXIT_OK


def _compare_table(name: str, actual: np.ndarray, expected: np.ndarray, mismatches: list):
    for k in range(expected.shape[0]):
        for i in range(expected.shape[1]):
            diff = abs(float(actual[k, i]) - float(expected[k, i]))
            if diff > reference.REFERENCE_TOL:
                mismatches.append(
                    f"MISMATCH {name}[k={k}][{i}]: computed {actual[k, i]:.4f}, "
                    f"reference {expected[k, i]:.4f} (diff {diff:.2e})"
                )


def _cmd_reproduce_example(args: argparse.Namespace) -> int:
    spec = get_preset(reference.EXAMPLE_PRESET)
    moments = derive_excess_moments(spec)
    open_loop = solve_open_loop(spec, moments)
    feedback = solve_feedback(spec, moments)
    mixed = solve_mixed(spec, PureFeedbackPart(gains=reference.MIXED_STRATEGY), moments)
    for result in (open_loop, feedback, mixed):
        if isinstance(result, NonexistenceReport):
            print(result.describe())
            return EXIT_NONEXISTENT

    eig_last = np.sort(mixed.gain_eigenvalues(spec)[spec.horizon - 1])
    eig_line = "last-stage gain matrix eigenvalues: " + " ".join(f"{v:.4f}" for v in eig_last)
    print(_policy_pretty("open-loop equilibrium control", open_loop.policy))
    print(_policy_pretty("feedback equilibrium strategy", feedback.policy))
    print(_policy_pretty("mixed equilibrium applied policy", mixed.policy, extra_lines=(eig_line,)))

    mismatches: list[str] = []
    _compare_table("open-loop K", open_loop.policy.gains, reference.OPEN_LOOP_GAINS, mismatches)
    _compare_table("open-loop c", open_loop.policy.offsets, reference.OPEN_LOOP_OFFSETS, mismatches)
    _compare_table("feedback K", feedback.policy.gains, reference.FEEDBACK_GAINS, mismatches)
    _compare_table("feedback c", feedback.policy.offsets, reference.FEEDBACK_OFFSETS, mismatches)
    _compare_table("mixed K", mixed.policy.gains, reference.MIXED_GAINS, mismatches)
    _compare_table("mixed c", mixed.policy.offsets, reference.MIXED_OFFSETS, mismatches)
    _compare_table(
        "mixed last-stage eigenvalues",
        eig_last[None, :],
        reference.MIXED_LAST_GAIN_EIGENVALUES[None, :],
        mismatches,
    )
    if mismatches:
        print("\n".join(mismatches))
        print(
            f"{len(mismatches)} values deviate from the bundled reference by more than "
            f"{reference.REFERENCE_TOL:g}. Note: the bundled feedback reference rows for "
            "stages 0-2 fail the exact spike-deviation test on this market; the solver "
            "returns the deviation-proof table instead (see README)."
        )
        return EXIT_VERIFICATION
    print(f"all reference values reproduced within {reference.REFERENCE_TOL:g}")
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    moments = derive_excess_moments(spec)
    m = spec.num_assets
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["draw", "phi_seed", "status", "stage"]
    header += [f"gain_eig_{i}" for i in range(m)]
    header.append("stage_ok")
    writer.writerow(header)
    seeds = [args.seed + draw for draw in range(args.draws)]
    parts = [sample_pure_feedback(phi_seed, spec.horizon, m) for phi_seed in seeds]
    results = solve_mixed_batch(spec, parts, moments)
    for draw, (phi_seed, result) in enumerate(zip(seeds, results)):
        if isinstance(result, NonexistenceReport):
            status = f"nonexistent:{result.failing_condition.name}"
            writer.writerow([draw, phi_seed, status, result.failing_stage] + [""] * (m + 1))
            continue
        # one solution's eigenvalues at a time, so no output holds every draw's
        # gain matrices; as Python floats, which the csv writer formats faster
        eigenvalues, stage_ok = result.gain_eigenvalues(spec).tolist(), result.trace.stage_ok
        for k in range(spec.initial_time, spec.horizon):
            row = [draw, phi_seed, "solved", k]
            row += eigenvalues[k]
            row.append(bool(stage_ok[k]))
            writer.writerow(row)
    _emit(buf.getvalue(), args)
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    try:
        _check_args(args)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InternalInconsistencyError, EquilibriumStructureError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        log.exception("unhandled failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    level = logging.getLevelName(os.environ.get("MV_EQ_LOG", "").upper())  # a level's number, or a string
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
