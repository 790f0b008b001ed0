#!/usr/bin/env python3
"""Mixed equilibria across seeded random strategy parts on one market.

Each draw's strategy part is standard normal, one stacked mixed solve covers
all draws, and the per-stage gain-matrix eigenvalues plus an exact deviation
test are reported. The verification passes for every solvable draw whatever
the signs of the eigenvalues: the mixed gain matrix need not be PSD, and the
solvability conditions, not luck, govern the construction. Output is CSV on
stdout.
"""

import argparse
import csv
import sys

import numpy as np

import mvequil as mv
from mvequil.reference import EXAMPLE_PRESET


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--market", default=EXAMPLE_PRESET)
    parser.add_argument("--draws", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verify", action="store_true", help="run the tree deviation test per draw")
    args = parser.parse_args()

    spec = mv.resolve_market(args.market)
    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments) if args.verify else None

    writer = csv.writer(sys.stdout)
    header = ["draw", "phi_seed", "status", "stage"]
    header += [f"gain_eig_{i}" for i in range(spec.num_assets)]
    if args.verify:
        header += ["min_gap"]
    writer.writerow(header)

    seeds = [args.seed + draw for draw in range(args.draws)]
    parts = [mv.sample_pure_feedback(phi_seed, spec.horizon, spec.num_assets) for phi_seed in seeds]
    for draw, (phi_seed, sol) in enumerate(zip(seeds, mv.solve_mixed_batch(spec, parts, moments))):
        if isinstance(sol, mv.NonexistenceReport):
            row = [draw, phi_seed, f"nonexistent:{sol.failing_condition.name}", sol.failing_stage]
            row += [""] * spec.num_assets + ([""] if args.verify else [])
            writer.writerow(row)
            continue
        min_gap = ""
        if args.verify:
            result = mv.verify_equilibrium(tree, spec, sol)
            min_gap = f"{mv.verification_summary(result)['min_gap']:.6e}"
        for k in range(spec.initial_time, spec.horizon):
            eigs = np.sort(sol.trace.gain_eigenvalues[k])
            row = [draw, phi_seed, "solved", k] + [f"{v:.10g}" for v in eigs]
            if args.verify:
                row += [min_gap if k == spec.initial_time else ""]
            writer.writerow(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
