#!/usr/bin/env python3
"""Compare the task-selection methods on a synthetic pool.

For each budget, runs every selector and reports the ED of the selected
subset and its ranking fidelity against the full task set, plus the
submodularity probe for the pool.
"""

import argparse
import csv

from spectradiag import (
    IrtSpec,
    baseline_select,
    gen_irt_matrix,
    submodularity_probe,
)
from spectradiag.selection import SELECTION_METHODS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-true", type=int, default=20)
    ap.add_argument("--tasks", type=int, default=300)
    ap.add_argument("--models", type=int, default=100)
    ap.add_argument("--scale", type=float, default=0.75)
    ap.add_argument("--difficulty-spread", type=float, default=20.0)
    ap.add_argument("--budgets", default="10,50,100")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", help="write the comparison table here")
    args = ap.parse_args()

    m = gen_irt_matrix(
        IrtSpec(
            k=args.k_true,
            tasks=args.tasks,
            models=args.models,
            discrimination_scale=args.scale,
            difficulty_spread=args.difficulty_spread,
            seed=args.seed,
        )
    )
    budgets = [int(b) for b in args.budgets.split(",")]

    rows = []
    print(f"{'method':<20} {'k':>5} {'ED':>8} {'tau':>7}")
    for k in budgets:
        for method in SELECTION_METHODS:
            res = baseline_select(m, k, method, seed=args.seed)
            print(f"{method:<20} {k:>5} {res.ed_trajectory[-1]:>8.2f} {res.tau_vs_full:>7.3f}")
            rows.append((method, k, res.ed_trajectory[-1], res.tau_vs_full))

    probe = submodularity_probe(m, samples=200, seed=args.seed)
    print(
        f"\nsubmodularity: median gamma {probe.median_gamma:.2f}, "
        f"min {probe.min_gamma:.2f}, violations {probe.violation_fraction:.0%} "
        f"({probe.valid_samples} valid samples)"
    )

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "k", "ed", "tau_vs_full"])
            writer.writerows(rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
