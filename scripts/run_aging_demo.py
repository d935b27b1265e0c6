#!/usr/bin/env python3
"""Ceiling-effect demonstration: apparent ED decline vs the fixed-variance control.

Builds a population with steadily rising pass rates, computes sliding-window
ED on the full task set and on the subset whose variance is stable between
early and late cohorts, runs the trend test on both, and fits the saturation
curve of ED against model count.
"""

import argparse

import numpy as np

from spectradiag import (
    SuiteScores,
    ed_vs_model_count,
    fixed_variance_subset,
    mann_kendall,
    saturation_fit,
    score_matrix,
    sliding_window_ed,
)


def build_population(seed: int, n_models: int = 400, n_ceiling: int = 120,
                     n_stable: int = 40):
    rng = np.random.default_rng(seed)
    ability = np.linspace(-2.0, 2.5, n_models)
    difficulty = -2.0 + 4.5 * (1.0 - np.sqrt(rng.random(n_ceiling)))
    p_ceiling = 1.0 / (1.0 + np.exp(-(3.0 * (ability[None, :] - difficulty[:, None]))))
    p_stable = np.full((n_stable, n_models), 0.5)
    probs = np.vstack([p_ceiling, p_stable])
    values = (rng.random(probs.shape) < probs).astype(float)
    return score_matrix(
        [f"t{i:03d}" for i in range(n_ceiling + n_stable)],
        [f"m{j:03d}" for j in range(n_models)],
        values,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--window", type=int, default=100)
    ap.add_argument("--step", type=int, default=30)
    ap.add_argument("--series-csv", help="write the full-set x,ed series here")
    args = ap.parse_args()

    m = build_population(args.seed)
    early = list(m.model_ids[: m.n_models // 3])
    late = list(m.model_ids[-m.n_models // 3 :])
    stable = fixed_variance_subset(m, early, late, tol=0.2)
    print(f"{len(stable)} of {m.n_tasks} tasks keep stable variance across cohorts")

    # tasks play the suite's benchmarks: one window ED per model window
    s = SuiteScores(m.model_ids, m.task_ids, m.dense_values().T)
    series = sliding_window_ed(s, window=args.window, step=args.step)
    full = series.ed
    ctrl = sliding_window_ed(s.subset_benchmarks(stable), window=args.window, step=args.step).ed

    mk_full = mann_kendall(full)
    mk_ctrl = mann_kendall(ctrl)
    print(f"full set:        tau {mk_full.tau:+.2f} (p {mk_full.p:.3f})  "
          f"ED {full[0]:.1f} -> {full[-1]:.1f}")
    print(f"fixed-variance:  tau {mk_ctrl.tau:+.2f} (p {mk_ctrl.p:.3f})  "
          f"ED {ctrl[0]:.1f} -> {ctrl[-1]:.1f}")

    counts = [20, 40, 80, 120, 200, 300, 400]
    points = ed_vs_model_count(m, counts, trials=10, seed=args.seed)
    fit = saturation_fit([(n, mean) for n, mean, _ in points])
    print(f"saturation: ED_inf {fit.ed_inf:.1f}, n_half {fit.n_half:.1f}"
          + (" (boundary)" if fit.boundary else ""))

    if args.series_csv:
        series.save_csv(args.series_csv)
        print(f"wrote {args.series_csv}")


if __name__ == "__main__":
    main()
