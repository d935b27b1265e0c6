import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectradiag import (
    IrtSpec,
    baseline_select,
    compression_curve,
    ed_greedy,
    gen_irt_matrix,
    prospective_split_eval,
    ranking_fidelity,
    score_matrix,
    submodularity_probe,
)
from spectradiag.selection import _GramEvaluator, _k_medoids, _profile_distances


def subset_ed_reference(values, rows) -> float:
    """From-scratch oracle: ED from the SVD of the task-centered submatrix."""
    sub = values[list(rows)]
    lam = np.linalg.svd(sub - sub.mean(axis=1, keepdims=True), compute_uv=False) ** 2
    return float(lam.sum() ** 2 / np.dot(lam, lam))


def submodularity_reference(values, samples, seed):
    """Per-sample loop: a fresh task-side evaluator per sample, adding S and
    then S' one task at a time. Returns the valid gammas and the count of
    negative-gain samples."""
    n_tasks = values.shape[0]
    gammas = []
    negative = 0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        small = rng.integers(2, max(3, n_tasks // 4) + 1)
        big = rng.integers(small + 1, min(2 * small, n_tasks - 1) + 1)
        perm = rng.permutation(n_tasks)
        t = perm[big]
        ev = _GramEvaluator(values)
        gains = []
        for added in (perm[:small], perm[small:big]):
            for idx in added:
                ev.add(idx)
            now = ev.trace * ev.trace / ev.fro2 if ev.fro2 > 0.0 else 0.0
            gains.append(float(ev.candidate_ed(t)) - now)
        if gains[0] < 0.0:
            negative += 1
        elif gains[1] > 1e-9:
            gammas.append(gains[0] / gains[1])
    return np.asarray(gammas), negative


def k_medoids_reference(values, k, seed, max_swaps=50):
    """Per-swap oracle: every (medoid, candidate) swap costed by its own pass;
    the first swap that beats the running best by 1e-12 wins."""
    dist = _profile_distances(values)
    t = values.shape[0]
    medoids = sorted(np.random.default_rng(seed).choice(t, size=k, replace=False).tolist())
    for _ in range(max_swaps):
        cost = dist[:, medoids].min(axis=1)
        nearest = dist[:, medoids].argmin(axis=1)
        second = np.partition(dist[:, medoids], 1, axis=1)[:, 1] if k > 1 else None
        best_delta, best_swap = 0.0, None
        for mi in range(k):
            without = np.where(nearest == mi, second, cost) if k > 1 else np.full(t, np.inf)
            for cand in range(t):
                if cand in medoids:
                    continue
                delta = np.minimum(without, dist[:, cand]).sum() - cost.sum()
                if delta < best_delta - 1e-12:
                    best_delta, best_swap = delta, (mi, cand)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        medoids.sort()
    return sorted(medoids)


def binary(arr, prefix="t"):
    t, n = np.asarray(arr).shape
    return score_matrix(
        [f"{prefix}{i:03d}" for i in range(t)], [f"m{j:03d}" for j in range(n)], arr
    )


@pytest.fixture(scope="module")
def pool():
    return gen_irt_matrix(
        IrtSpec(k=8, tasks=60, models=30, discrimination_scale=2.0, seed=17)
    )


class TestEdGreedy:
    def test_first_step_ed_exactly_one(self, pool):
        res = ed_greedy(pool, 5)
        assert res.ed_trajectory[0] == 1.0

    def test_k_one_picks_max_variance(self, pool):
        res = ed_greedy(pool, 1)
        values = pool.dense_values()
        variances = values.var(axis=1)
        best = sorted(
            range(pool.n_tasks), key=lambda t: (-variances[t], pool.task_ids[t])
        )[0]
        assert res.selected == (pool.task_ids[best],)

    def test_identical_rows_stay_at_one(self):
        row = np.array([1.0, 0, 1, 0, 1, 1])
        m = binary(np.tile(row, (5, 1)))
        res = ed_greedy(m, 3)
        assert all(math.isclose(e, 1.0, rel_tol=1e-12) for e in res.ed_trajectory)

    def test_trajectory_matches_svd_recomputation(self, pool):
        res = ed_greedy(pool, 12)
        values = pool.dense_values()
        ids = {tid: i for i, tid in enumerate(pool.task_ids)}
        for step in range(1, 13):
            rows = [ids[t] for t in res.selected[:step]]
            ref = subset_ed_reference(values, rows)
            assert math.isclose(res.ed_trajectory[step - 1], ref, rel_tol=1e-9)

    def test_matches_from_scratch_greedy(self, pool):
        # exhaustive reference greedy recomputing every candidate via SVD,
        # mirroring the (ed, variance, id) tie-break; EDs rounded to the
        # 1e-9 agreement level of the incremental path
        values = pool.dense_values()
        variances = values.var(axis=1)
        chosen: list[int] = []
        remaining = list(range(pool.n_tasks))
        for _ in range(6):
            best_t = None
            best = None
            for t in remaining:
                ed = round(subset_ed_reference(values, chosen + [t]), 9)
                cand = (ed, variances[t], pool.task_ids[t])
                if best is None:
                    better = True
                else:
                    better = ed > best[0] or (
                        ed == best[0]
                        and (
                            cand[1] > best[1]
                            or (cand[1] == best[1] and cand[2] < best[2])
                        )
                    )
                if better:
                    best, best_t = cand, t
            chosen.append(best_t)
            remaining.remove(best_t)
        res = ed_greedy(pool, 6)
        assert res.selected == tuple(pool.task_ids[t] for t in chosen)

    def test_budget_validation(self, pool):
        with pytest.raises(ValueError):
            ed_greedy(pool, pool.n_tasks + 1)

    def test_all_degenerate_rejected(self):
        m = binary(np.ones((4, 5)))
        with pytest.raises(ValueError, match="degenerate"):
            ed_greedy(m, 2)

    def test_deterministic(self, pool):
        assert ed_greedy(pool, 8).selected == ed_greedy(pool, 8).selected

    def test_memory_stays_linear_in_tasks(self):
        # a T x T Gram at T = 8000 alone would take 512 MB
        rng = np.random.default_rng(6)
        m = binary((rng.random((8000, 10)) < 0.5).astype(float), prefix="task")
        tracemalloc.start()
        try:
            ed_greedy(m, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_subset_ed_bounds(self, pool):
        res = ed_greedy(pool, 10)
        final = res.ed_trajectory[-1]
        assert final <= 10 + 1e-9
        assert final <= pool.n_models + 1e-9


class TestBaselines:
    def test_max_variance_prefers_half_rate(self):
        rng = np.random.default_rng(0)
        n = 400
        rates = {"t000": 0.5, "t001": 0.9, "t002": 0.99}
        rows = np.vstack([(rng.random(n) < p).astype(float) for p in rates.values()])
        m = score_matrix(list(rates), [f"m{j}" for j in range(n)], rows)
        res = baseline_select(m, 1, "max_variance")
        assert res.selected == ("t000",)

    def test_random_reproducible(self, pool):
        a = baseline_select(pool, 7, "random", seed=3)
        b = baseline_select(pool, 7, "random", seed=3)
        assert a.selected == b.selected
        assert a.seed == 3

    def test_two_stage_subset_of_double_greedy(self, pool):
        two = baseline_select(pool, 6, "two_stage")
        wide = ed_greedy(pool, 12)
        assert set(two.selected) <= set(wide.selected)

    def test_k_medoids_runs_and_is_seeded(self, pool):
        a = baseline_select(pool, 5, "k_medoids", seed=1)
        b = baseline_select(pool, 5, "k_medoids", seed=1)
        assert a.selected == b.selected
        assert len(a.selected) == 5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(4, 30),
        k=st.integers(1, 4),
        max_swaps=st.integers(1, 50),
    )
    def test_k_medoids_matches_per_swap_reference(self, seed, t, k, max_swaps):
        # continuous rows keep every swap cost distinct (no exact ties)
        values = np.random.default_rng(seed).standard_normal((t, 6))
        assert _k_medoids(values, k, seed, max_swaps) == k_medoids_reference(
            values, k, seed, max_swaps
        )

    def test_discrimination_selects_aligned_tasks(self):
        rng = np.random.default_rng(1)
        ability = np.sort(rng.standard_normal(200))
        aligned = (np.tile(ability, (3, 1)) > rng.normal(0, 0.3, (3, 1))).astype(float)
        noise = (rng.random((3, 200)) < 0.5).astype(float)
        m = binary(np.vstack([noise, aligned]))
        res = baseline_select(m, 3, "irt_discrimination")
        assert set(res.selected) == {"t003", "t004", "t005"}

    def test_unknown_method(self, pool):
        with pytest.raises(ValueError):
            baseline_select(pool, 3, "quantum")


class TestRankingFidelity:
    def test_full_set_is_one(self, pool):
        assert ranking_fidelity(pool, pool.task_ids) == 1.0

    def test_duplicated_structure_is_one(self):
        rng = np.random.default_rng(2)
        rows = (rng.random((4, 50)) < 0.5).astype(float)
        m = binary(np.vstack([rows, rows]))
        assert ranking_fidelity(m, m.task_ids[:4]) == 1.0

    def test_adversarial_task_lowers_tau(self):
        ability = np.linspace(0, 1, 30)
        good = (np.tile(ability, (6, 1)) > np.linspace(0.2, 0.8, 6)[:, None]).astype(float)
        inverted = (ability < 0.5).astype(float)[None, :]
        m = binary(np.vstack([good, inverted]))
        tau_adversarial = ranking_fidelity(m, [m.task_ids[-1]])
        assert tau_adversarial < 1.0


class TestCompression:
    def test_near_deterministic_rank_one_compresses(self):
        m = gen_irt_matrix(
            IrtSpec(
                k=1,
                tasks=500,
                models=100,
                discrimination_scale=50.0,
                loading_orientation="positive",
                seed=0,
            )
        )
        curve = compression_curve(m, trials=10, seed=0)
        assert curve.reached
        assert curve.fraction_needed <= 0.1

    def test_curve_isotone_within_noise(self):
        m = gen_irt_matrix(
            IrtSpec(
                k=3,
                tasks=300,
                models=80,
                discrimination_scale=3.0,
                loading_orientation="positive",
                seed=1,
            )
        )
        curve = compression_curve(m, trials=20, seed=1)
        taus = [t for _, t in curve.curve]
        for i in range(len(taus) - 1):
            assert taus[i + 1] >= taus[i] - 0.02

    def test_unreachable_target_flagged(self):
        rng = np.random.default_rng(3)
        # anti-correlated halves keep subset rankings unstable
        m = binary((rng.random((12, 10)) < 0.5).astype(float))
        curve = compression_curve(m, tau_target=1.01, trials=4, seed=0)
        assert not curve.reached
        assert curve.fraction_needed == 1.0

    def test_full_fraction_tau_one(self, pool):
        curve = compression_curve(pool, trials=4, seed=2)
        assert curve.curve[-1][0] == 1.0
        assert math.isclose(curve.curve[-1][1], 1.0, abs_tol=1e-12)


class TestSubmodularity:
    def test_identical_rows_error_path(self):
        row = np.array([1.0, 0, 1, 0, 1, 1, 0, 0])
        m = binary(np.tile(row, (20, 1)))
        with pytest.raises(ValueError, match="valid"):
            submodularity_probe(m, samples=50, seed=0)

    def test_general_matrix_reports(self, pool):
        rep = submodularity_probe(pool, samples=100, seed=0)
        assert rep.valid_samples >= 10
        assert rep.min_gamma <= rep.median_gamma
        assert 0.0 <= rep.violation_fraction <= 1.0

    def test_near_orthogonal_tasks_gamma_one(self):
        rng = np.random.default_rng(0)
        t, n = 40, 200
        vals = np.zeros((t, n))
        for i in range(t):
            vals[i, rng.permutation(n)[: n // 2]] = 1.0
        m = binary(vals)
        rep = submodularity_probe(m, samples=150, seed=0)
        assert abs(rep.median_gamma - 1.0) < 0.1

    def test_irt_min_gamma_drops_low(self):
        m = gen_irt_matrix(
            IrtSpec(k=5, tasks=120, models=60, discrimination_scale=2.0, seed=4)
        )
        rep = submodularity_probe(m, samples=200, seed=1)
        assert rep.min_gamma >= 0.0
        assert rep.min_gamma < 0.7

    def test_matches_per_sample_evaluator_reference(self, pool):
        rng = np.random.default_rng(6)
        grids = [
            pool,
            gen_irt_matrix(IrtSpec(k=3, tasks=200, models=50, seed=9)),
            binary(rng.random((90, 120))),
        ]
        for m in grids:
            rep = submodularity_probe(m, samples=120, seed=2)
            gammas, negative = submodularity_reference(m.dense_values(), 120, 2)
            assert rep.valid_samples == gammas.size
            assert rep.negative_gain_samples == negative
            assert math.isclose(rep.median_gamma, np.median(gammas), rel_tol=1e-9)
            assert math.isclose(rep.min_gamma, gammas.min(), rel_tol=1e-9)
            assert rep.violation_fraction == (gammas < 1.0).mean()

    def test_seed_reproducible(self, pool):
        a = submodularity_probe(pool, samples=60, seed=5)
        b = submodularity_probe(pool, samples=60, seed=5)
        assert a == b


class TestProspective:
    def test_full_selection_perfect_both_cohorts(self, pool):
        out = prospective_split_eval(
            pool, methods=("max_variance",), ks=(pool.n_tasks,), seed=0
        )
        row = out[("max_variance", pool.n_tasks)]
        assert row.train_tau == 1.0
        assert row.test_tau == 1.0
        assert row.gap == 0.0

    def test_small_cohorts_rejected(self):
        rng = np.random.default_rng(4)
        m = binary((rng.random((10, 6)) < 0.5).astype(float))
        with pytest.raises(ValueError, match="cohort"):
            prospective_split_eval(m, ks=(2,), seed=0)

    def test_returns_rows_for_all_pairs(self, pool):
        out = prospective_split_eval(
            pool, methods=("ed_greedy", "random"), ks=(5, 10), seed=1
        )
        assert set(out) == {("ed_greedy", 5), ("ed_greedy", 10), ("random", 5), ("random", 10)}

    def test_max_variance_overfits_design_cohort(self):
        # design-cohort p ~ 0.5 tasks saturate among the stronger future
        # cohort, so the variance-chasing selector has the worst gap
        hits = 0
        for seed in range(10):
            m = gen_irt_matrix(
                IrtSpec(
                    k=10, tasks=300, models=100, discrimination_scale=4.0,
                    difficulty_spread=2.0, loading_orientation="positive",
                    seed=seed,
                )
            )
            out = prospective_split_eval(
                m, methods=("ed_greedy", "random", "max_variance"), ks=(50,), seed=seed
            )
            gaps = {meth: out[(meth, 50)].gap for meth in ("ed_greedy", "random", "max_variance")}
            hits += gaps["max_variance"] <= min(gaps.values())
        assert hits >= 8
