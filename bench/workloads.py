"""The benchmark's three jobs, each a fixed sequence of public spectradiag calls.

A job function takes the workload seed and a scratch directory and returns a
:class:`Job`: ``setup`` generates the inputs (through ``spectradiag.synthetic``
and ``save_matrix``) and returns the shared state, ``warmup`` makes one small
call, and each :class:`Op` is timed on its own while its ``check`` runs
untimed afterwards. Ops read earlier results from the state by op name.

Functions are looked up on the ``spectradiag`` package at call time so that
the tracer's wrappers, when installed, are the ones called.

Why these three: each puts most of its time on a different set of layers, so
a change to one layer moves ``job_s`` on one workload and leaves the others
flat.

- ``ed_report``: tall, file-backed, model-side replicates. ``matrix_io``
  parsing, large ``spectral`` SVDs and the ``nulls`` loops.
- ``redundancy``: task-side and pairwise work in memory. ``selection`` (the
  T x T Gram, per-swap loops, per-call matrix copies) and ``association``.
- ``suite_temporal``: thousands of tiny 12 x 300 ED calls on a wide suite,
  where ``spectral`` cost is per call, plus the ``composite`` Dirichlet loop
  and ``temporal``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as o
from oracles import expect, expect_close


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], None]


@dataclass
class Job:
    setup: Callable[[], dict]
    warmup: Callable[[dict], None]
    ops: list[Op]


def _sd():
    import spectradiag
    import spectradiag.cli  # noqa: F401  (binds the ``cli`` attribute)

    return spectradiag


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.default_rng((seed, stream)).integers(2**31))


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``spectradiag.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _sd().cli.main(argv)
    return code, out.getvalue()


def _cli_result(outcome) -> dict:
    code, text = outcome
    expect(code == 0, f"exit code {code}")
    return json.loads(text)["result"]


def _irt(seed: int, stream: int, k: int, tasks: int, models: int, scale: float = 2.0):
    sd = _sd()
    spec = sd.IrtSpec(
        k=k,
        tasks=tasks,
        models=models,
        discrimination_scale=scale,
        loading_orientation="positive",
        seed=_subseed(seed, stream),
    )
    return sd.gen_irt_matrix(spec)


def _check_trajectory(values, m, res, k: int, prefixes) -> None:
    """Selection size, uniqueness, ED-trajectory prefixes and ranking tau."""
    expect(len(res.selected) == k == len(set(res.selected)), "selection size or duplicates")
    rows = [m.task_ids.index(t) for t in res.selected]
    for j in prefixes:
        expect_close(
            res.ed_trajectory[j - 1], o.ed(values[rows[:j]]), o.ED_RTOL, f"trajectory ED at {j}"
        )
    expect_close(res.tau_vs_full, o.mean_rank_tau(values, rows), 1e-12, "tau_vs_full")


# ---------------------------------------------------------------- ed_report

ED_TASKS, ED_MODELS, ED_MISSING = 5000, 200, 0.02


def ed_report(seed: int, workdir: Path) -> Job:
    path = str(workdir / "ed_report.csv")

    def setup() -> dict:
        sd = _sd()
        binary = np.array(_irt(seed, 0, 5, ED_TASKS, ED_MODELS).values)
        rng = np.random.default_rng((seed, 1))
        # Passes land in [0.6, 1), fails in [0, 0.4): binarizing at 0.5
        # recovers the 2PL outcomes exactly.
        scores = 0.6 * binary + 0.4 * rng.random(binary.shape)
        missing = rng.random(binary.shape) < ED_MISSING
        scores[missing] = np.nan
        t_ids = [f"task_{i:05d}" for i in range(ED_TASKS)]
        m_ids = [f"model_{j:03d}" for j in range(ED_MODELS)]
        sd.save_matrix(sd.score_matrix(t_ids, m_ids, scores), path)
        return {"binary": binary, "scores": scores, "missing": missing, "t_ids": t_ids}

    def warmup(state: dict) -> None:
        _sd().ed_of_matrix(state["binary"][:200])

    def expected(state: dict) -> np.ndarray:
        """The binarized, imputed grid; with its variance shares and model
        correlation spectrum, computed once per set-up."""
        if "expected" not in state:
            x = o.impute_column_means(state["binary"], state["missing"])
            state["expected"] = x
            state["fractions"] = o.variance_fractions(x)
            corr = np.corrcoef(x, rowvar=False)
            state["corr_eig"] = np.sort(np.linalg.eigvalsh(corr))[::-1]
        return state["expected"]

    def check_cli(outcome, state):
        r = _cli_result(outcome)
        x = expected(state)
        expect_close(r["ed"], o.ed(x), o.ED_RTOL, "ED")
        expect_close(r["pc1_pct"], state["fractions"][0], o.ED_RTOL, "PC1 share")
        expect_close(r["ed_null"], o.mp_null(ED_TASKS, ED_MODELS), 1e-12, "ed_null")
        expect_close(r["ratio"], r["ed"] / r["ed_null"], 1e-12, "ratio")
        expect(r["ci_low"] <= r["ed"] <= r["ci_high"], "interval does not bracket ED")
        expect((r["n_tasks"], r["n_models"]) == (ED_TASKS, ED_MODELS), "shape")

    def check_load(m, state):
        expect(m.shape == (ED_TASKS, ED_MODELS), "shape")
        expect(list(m.task_ids) == state["t_ids"], "task ids")
        expect(np.array_equal(m.missing, state["missing"]), "missing mask")
        observed = ~state["missing"]
        expect(np.array_equal(m.values[observed], state["scores"][observed]), "cell values")

    def check_binarize(m, state):
        observed = ~state["missing"]
        expect(np.array_equal(m.missing, state["missing"]), "missing mask")
        expect(np.array_equal(m.values[observed], state["binary"][observed]), "pass/fail cells")

    def check_impute(m, state):
        expect(not m.missing.any(), "cells still missing")
        expect(np.allclose(m.values, expected(state), rtol=1e-12, atol=0.0), "imputed values")

    def check_band(band, state):
        b = np.asarray(band.band)
        expect(b.shape == (min(ED_TASKS, ED_MODELS),) and band.replicates == 20, "band shape")
        expect(np.all((b >= 0.0) & (b <= 1.0)), "band outside [0, 1]")
        expect(np.all(np.diff(b) <= 1e-12), "band not nonincreasing")
        expect(b[0] >= 1.0 / b.size, "top null share below the mean share")

    def check_significant(count, state):
        expected(state)
        observed = state["fractions"]
        want = 0
        for obs, null in zip(observed, state["permutation_null"].band):
            if not obs > null:
                break
            want += 1
        expect(count == want, f"significant PCs {count}, expected {want}")
        expect(count >= 1, "no significant PC on a k=5 matrix")

    def check_alternatives(res, state):
        expected(state)
        eig = state["corr_eig"]
        p = eig.size
        frac = eig / eig.sum()
        stick = np.array([np.sum(1.0 / np.arange(i, p + 1)) for i in range(1, p + 1)]) / p
        above = frac > stick
        cum = np.cumsum(frac)
        want = {
            "kaiser": int((eig > 1.0).sum()),
            "broken_stick": int(p if above.all() else np.argmin(above)),
            "var80": int(np.searchsorted(cum, 0.8 - 1e-12) + 1),
            "var90": int(np.searchsorted(cum, 0.9 - 1e-12) + 1),
        }
        got = {key: res[key] for key in want}
        expect(got == want, f"estimators {got}, expected {want}")
        expect(0 <= res["parallel_analysis"] <= p, "parallel analysis out of range")

    sd = _sd
    argv = ["ed", "--matrix", path, "--bootstrap-iters", "100", "--seed", str(seed)]
    ops = [
        Op("cli_ed", lambda s: _cli(argv), check_cli),
        Op("load_matrix", lambda s: sd().load_matrix(path), check_load),
        Op("binarize", lambda s: sd().binarize(s["load_matrix"]), check_binarize),
        Op("impute_missing", lambda s: sd().impute_missing(s["binarize"]), check_impute),
        Op(
            "permutation_null",
            lambda s: sd().permutation_null(s["impute_missing"], replicates=20, seed=seed),
            check_band,
        ),
        Op(
            "significant_pcs",
            lambda s: sd().significant_pcs(s["impute_missing"], s["permutation_null"]),
            check_significant,
        ),
        Op(
            "alternative_estimators",
            lambda s: sd().alternative_estimators(s["impute_missing"], seed=seed, pa_replicates=20),
            check_alternatives,
        ),
    ]
    return Job(setup, warmup, ops)


# ---------------------------------------------------------------- redundancy

GREEDY_TASKS, POOL_TASKS, TETRA_TASKS = 6000, 800, 2000
GREEDY_K, MEDOID_K = 50, 16


def redundancy(seed: int, workdir: Path) -> Job:
    def setup() -> dict:
        big = _irt(seed, 0, 5, GREEDY_TASKS, 100)
        pool = _irt(seed, 1, 5, POOL_TASKS, 100)
        tetra = _irt(seed, 2, 5, TETRA_TASKS, 40)
        return {
            "big": big,
            "big_values": np.array(big.values),
            "pool": pool,
            "pool_values": np.array(pool.values),
            "tetra": tetra,
            "model_table": np.array(pool.values).T,
        }

    def warmup(state: dict) -> None:
        _sd().ed_of_matrix(state["pool_values"][:200])

    def check_greedy(res, state):
        values = state["big_values"]
        _check_trajectory(values, state["big"], res, GREEDY_K, (2, 10, 25, GREEDY_K))
        rows = [state["big"].task_ids.index(t) for t in res.selected]
        centered = values - values.mean(axis=1, keepdims=True)
        for step in (2, 25, GREEDY_K):
            best = o.greedy_candidates(centered, rows[: step - 1])
            chosen = best[rows[step - 1]]
            expect_close(chosen, res.ed_trajectory[step - 1], o.ED_RTOL, f"step {step} ED")
            expect(
                chosen >= best.max() * (1.0 - o.ED_RTOL), f"step {step} is not the best addition"
            )

    def check_medoids(res, state):
        _check_trajectory(state["pool_values"], state["pool"], res, MEDOID_K, (MEDOID_K,))

    def check_two_stage(res, state):
        values = state["pool_values"]
        _check_trajectory(values, state["pool"], res, MEDOID_K, (MEDOID_K,))
        disc = o.point_biserial(values)[[state["pool"].task_ids.index(t) for t in res.selected]]
        expect(np.all(np.diff(disc) <= 1e-9), "two-stage picks not ordered by discrimination")

    def check_curve(curve, state):
        fracs = [f for f, _ in curve.curve]
        taus = np.array([t for _, t in curve.curve])
        expect(fracs == sorted(fracs) and fracs[-1] == 1.0, "fractions")
        expect(np.all(np.abs(taus) <= 1.0 + 1e-12), "tau outside [-1, 1]")
        expect_close(taus[-1], 1.0, 1e-12, "tau on all tasks")
        hit = [f for f, t in curve.curve if t >= curve.tau_target]
        expect(curve.reached == bool(hit), "reached flag")
        expect(curve.fraction_needed == (hit[0] if hit else 1.0), "fraction needed")

    def check_submodularity(rep, state):
        expect(rep.valid_samples >= 10, "too few valid samples")
        expect(rep.valid_samples + rep.negative_gain_samples <= 200, "sample accounting")
        expect(rep.min_gamma <= rep.median_gamma, "min above median")
        expect(0.0 <= rep.violation_fraction <= 1.0, "violation fraction")

    def check_tetrachoric(corr, state):
        n = state["tetra"].n_models
        expect(corr.shape == (n, n) and np.array_equal(corr, corr.T), "shape or symmetry")
        expect(np.all(np.diag(corr) == 1.0), "diagonal")
        off = corr[np.triu_indices(n, 1)]
        expect(np.all(np.abs(off) < 1.0), "rho outside (-1, 1)")
        values = np.array(state["tetra"].values, dtype=bool)
        # Every pair not clamped is a fitted root; check a sample of them.
        pairs = np.argwhere(np.triu(np.abs(corr) != o.RHO_CLAMP, 1))
        expect(len(pairs) > 0, "every pair is clamped")
        rng = np.random.default_rng((seed, 3))
        for i, j in pairs[rng.choice(len(pairs), size=min(5, len(pairs)), replace=False)]:
            o.check_tetrachoric_pair(values[:, i], values[:, j], corr[i, j])

    def check_correlation(c, state):
        table = state["model_table"]
        n = table.shape[0]
        expect(c.values.shape == (n, n) and not c.degenerate_ids, "shape or degenerate")
        expect(np.array_equal(c.values, c.values.T), "symmetry")
        rng = np.random.default_rng((seed, 4))
        for _ in range(5):
            i, j = rng.choice(n, size=2, replace=False)
            expect_close(c.values[i, j], o.spearman(table[i], table[j]), 1e-12, "spearman")

    def check_cluster(g, state):
        ids = state["pool"].model_ids
        members = sorted(i for grp in g.groups for i in grp)
        expect(len(g.groups) == 5 and members == sorted(ids), "partition")
        heights = np.array([d for _, _, d in g.merges])
        expect(heights.size == len(ids) - 1, "merge count")
        expect(np.all(np.diff(heights) >= -1e-12), "average-linkage heights decrease")
        dist = 1.0 - np.abs(state["pairwise_correlation"].values)
        expect_close(heights[0], dist[np.triu_indices(len(ids), 1)].min(), 1e-12, "first merge")

    def check_hamming(value, state):
        expect_close(value, o.hamming_mean(state["pool_values"]), 1e-12, "mean Hamming")

    sd = _sd
    ops = [
        Op("ed_greedy", lambda s: sd().ed_greedy(s["big"], GREEDY_K), check_greedy),
        Op(
            "k_medoids",
            lambda s: sd().baseline_select(s["pool"], MEDOID_K, "k_medoids", seed=seed),
            check_medoids,
        ),
        Op(
            "two_stage",
            lambda s: sd().baseline_select(s["pool"], MEDOID_K, "two_stage", seed=seed),
            check_two_stage,
        ),
        Op(
            "compression_curve",
            lambda s: sd().compression_curve(s["pool"], trials=20, seed=seed),
            check_curve,
        ),
        Op(
            "submodularity_probe",
            lambda s: sd().submodularity_probe(s["pool"], samples=200, seed=seed),
            check_submodularity,
        ),
        Op(
            "tetrachoric_matrix",
            lambda s: sd().association.tetrachoric_matrix(s["tetra"]),
            check_tetrachoric,
        ),
        Op(
            "pairwise_correlation",
            lambda s: sd().pairwise_correlation(s["model_table"], ids=s["pool"].model_ids),
            check_correlation,
        ),
        Op(
            "hierarchical_cluster",
            lambda s: sd().hierarchical_cluster(s["pairwise_correlation"], n_groups=5),
            check_cluster,
        ),
        Op("mean_pairwise_hamming", lambda s: sd().mean_pairwise_hamming(s["pool"]), check_hamming),
    ]
    return Job(setup, warmup, ops)


# ---------------------------------------------------------------- suite_temporal

SUITE_BENCHMARKS, SUITE_CANDIDATES, SUITE_MODELS, TASKS_PER_BENCHMARK = 12, 3, 3000, 40
WINDOW, STEP, COHORT = 300, 50, 600
MODEL_COUNTS = (25, 50, 100, 200, 400, 800, 1600, SUITE_MODELS)


def suite_temporal(seed: int, workdir: Path) -> Job:
    suite_path = str(workdir / "suite.csv")
    cand_path = str(workdir / "candidates.csv")
    series_path = str(workdir / "ed_series.csv")

    def setup() -> dict:
        sd = _sd()
        n_bench = SUITE_BENCHMARKS + SUITE_CANDIDATES
        items = np.array(_irt(seed, 0, 3, n_bench * TASKS_PER_BENCHMARK, SUITE_MODELS, 1.5).values)
        scores = items.reshape(n_bench, TASKS_PER_BENCHMARK, SUITE_MODELS).mean(axis=1)
        # Population sorted weakest to strongest, as a release-date order would be.
        order = np.lexsort((np.arange(SUITE_MODELS), scores[:SUITE_BENCHMARKS].mean(axis=0)))
        scores = scores[:, order]
        m_ids = [f"model_{j:04d}" for j in order]
        b_ids = [f"bench_{i:02d}" for i in range(SUITE_BENCHMARKS)]
        c_ids = [f"cand_{i:02d}" for i in range(SUITE_CANDIDATES)]
        table = scores[:SUITE_BENCHMARKS]
        suite_matrix = sd.score_matrix(b_ids, m_ids, table)
        sd.save_matrix(suite_matrix, suite_path)
        sd.save_matrix(sd.score_matrix(c_ids, m_ids, scores[SUITE_BENCHMARKS:]), cand_path)
        rng = np.random.default_rng((seed, 1))
        xs = np.arange(1, 41)
        eds = 3.0 + 2.0 * np.exp(-xs / 15.0) + 0.05 * rng.standard_normal(xs.size)
        with open(series_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "ed"])
            writer.writerows(zip(xs.tolist(), eds.tolist()))
        return {
            "table": table,
            "candidates": scores[SUITE_BENCHMARKS:],
            "series": eds,
            "m_ids": m_ids,
            "suite": sd.SuiteScores(tuple(m_ids), tuple(b_ids), table.T),
            "suite_matrix": suite_matrix,
        }

    def warmup(state: dict) -> None:
        _sd().ed_of_matrix(state["table"][:, :WINDOW])

    def suite_ed(table) -> float:
        return o.ed(o.zscore_rows(table))

    def check_suite(outcome, state):
        r = _cli_result(outcome)
        table = state["table"]
        full = suite_ed(table)
        expect_close(r["ed"], full, o.ED_RTOL, "suite ED")
        expect_close(r["information_density"], r["ed"] / SUITE_BENCHMARKS, 1e-12, "density")
        for b, (name, rec) in enumerate(r["leave_one_out"].items()):
            reduced = suite_ed(np.delete(table, b, axis=0))
            expect_close(rec["delta_ed"], full - reduced, 0.0, f"{name} delta", o.ED_RTOL * full)
            expect(abs(rec["tau_vs_full"]) <= 1.0, f"{name} tau")
        frag = r["fragility"]
        z = o.zscore_rows(table).mean(axis=0)
        champion = state["m_ids"].index(frag["equal_weight_champion"])
        expect(frag["samples"] == 10000, "fragility samples")
        expect(0.0 <= frag["champion_change_rate"] <= 1.0, "change rate")
        expect(frag["distinct_champions"] >= 1, "distinct champions")
        expect(z[champion] >= z.max() - 1e-12, "equal-weight champion is not the top model")

    def check_corr(outcome, state):
        r = _cli_result(outcome)
        values = np.array(r["values"], dtype=float)
        table = state["table"]
        expect(values.shape == (SUITE_BENCHMARKS,) * 2, "shape")
        expect(np.array_equal(values, values.T) and np.all(np.diag(values) == 1.0), "symmetry")
        for i, j in ((0, 1), (3, 7), (10, 11)):
            expect_close(values[i, j], o.kendall(table[i], table[j]), 1e-12, "kendall")

    def check_workflow(outcome, state):
        r = _cli_result(outcome)
        table, cands = state["table"], state["candidates"]
        steps = [r[k] for k in ("step1_redundancy", "step2_suite_ed", "step3_trend", "step4_vet")]
        expect(all(s["status"] == "ok" for s in steps), "a step did not run")
        n = SUITE_BENCHMARKS
        rho = {(i, j): o.spearman(table[i], table[j]) for i in range(n) for j in range(i + 1, n)}
        got = {(a, b) for a, b, _ in steps[0]["redundant_pairs"]}
        want = {(f"bench_{i:02d}", f"bench_{j:02d}") for (i, j), v in rho.items() if v > 0.9}
        expect(got == want, "redundant pairs")
        expect_close(steps[1]["ed"], suite_ed(table), o.ED_RTOL, "workflow suite ED")
        expect_close(steps[2]["tau"], o.mann_kendall_tau(state["series"]), 1e-12, "trend tau")
        for c, rec in enumerate(steps[3]["candidates"].values()):
            best = max(o.spearman(cands[c], row) for row in table)
            expect_close(rec["max_rho"], best, 1e-12, "candidate max rho")

    def check_windows(series, state):
        table = state["table"]
        starts = range(0, SUITE_MODELS - WINDOW + 1, STEP)
        expect(list(series.x) == [float(s + WINDOW) for s in starts], "window ends")
        for s, value in zip(starts, series.ed):
            block = table[:, s : s + WINDOW]
            expect_close(value, o.ed(o.zscore_rows(block)), o.ED_RTOL, f"window at {s}")

    def check_cohorts(cmp, state):
        expect(cmp.iterations == 2000, "iterations")
        expect(cmp.ci[0] <= cmp.ci[1], "interval order")
        expect(0.0 <= cmp.p_direction <= 1.0, "p_direction")
        expect(abs(cmp.delta) <= SUITE_BENCHMARKS - 1, "delta out of range")

    def check_counts(rows, state):
        expect([c for c, _, _ in rows] == list(MODEL_COUNTS), "counts")
        expect(all(1.0 <= mean <= SUITE_BENCHMARKS for _, mean, _ in rows), "mean ED range")
        _, full_mean, full_sd = rows[-1]
        expect_close(full_mean, o.ed(state["table"]), o.ED_RTOL, "ED on all models")
        expect(full_sd == 0.0, "sd on all models")

    def check_fit(fit, state):
        pts = np.array([(c, mean) for c, mean, _ in state["ed_vs_model_count"]])
        n, ed = pts[:, 0], pts[:, 1]
        resid = ed - fit.ed_inf * n / (n + fit.n_half)
        expect(fit.ed_inf > 0.0 and fit.n_half >= 0.0, "parameters")
        expect_close(fit.rss, float(resid @ resid), 1e-9, "rss", atol=1e-15)

    def check_trend(mk, state):
        eds = state["sliding_window_ed"].ed
        expect(mk.s == o.mann_kendall_s(eds), "S statistic")
        expect_close(mk.tau, o.mann_kendall_tau(eds), 1e-12, "tau")
        expect(0.0 <= mk.p <= 1.0, "p-value")

    sd = _sd
    workflow = [
        "workflow", "--suite", suite_path, "--ed-series", series_path, "--candidates", cand_path
    ]
    ops = [
        Op(
            "cli_suite",
            lambda s: _cli(["suite", "--suite", suite_path, "--samples", "10000", "--seed", str(seed)]),
            check_suite,
        ),
        Op("cli_corr", lambda s: _cli(["corr", "--suite", suite_path, "--method", "kendall"]), check_corr),
        Op("cli_workflow", lambda s: _cli(workflow), check_workflow),
        Op(
            "sliding_window_ed",
            lambda s: sd().sliding_window_ed(s["suite"], window=WINDOW, step=STEP, standardize=True),
            check_windows,
        ),
        Op(
            "cohort_bootstrap_compare",
            lambda s: sd().cohort_bootstrap_compare(
                s["suite"], s["m_ids"][:COHORT], s["m_ids"][-COHORT:],
                sample=WINDOW, iterations=2000, seed=seed,
            ),
            check_cohorts,
        ),
        Op(
            "ed_vs_model_count",
            lambda s: sd().ed_vs_model_count(s["suite_matrix"], MODEL_COUNTS, trials=20, seed=seed),
            check_counts,
        ),
        Op(
            "saturation_fit",
            lambda s: sd().saturation_fit([(c, mean) for c, mean, _ in s["ed_vs_model_count"]]),
            check_fit,
        ),
        Op("mann_kendall", lambda s: sd().mann_kendall(s["sliding_window_ed"].ed), check_trend),
    ]
    return Job(setup, warmup, ops)

