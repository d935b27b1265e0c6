import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from spectradiag.selection import (
    COMPRESSION_FRACTIONS,
    _best_first,
    _discrimination,
    _distance_rows,
    _GramEvaluator,
    _k_medoids,
    _unit_rows,
)


def subset_ed_reference(values, rows) -> float:
    """From-scratch oracle: ED from the SVD of the task-centered submatrix."""
    sub = values[list(rows)]
    lam = np.linalg.svd(sub - sub.mean(axis=1, keepdims=True), compute_uv=False) ** 2
    return float(lam.sum() ** 2 / np.dot(lam, lam))


def compression_curve_reference(m, tau_target=0.95, trials=20, seed=0, fractions=None):
    """Per-trial loop: one subset-mean scipy tau-b per trial, each from its
    own copy of the grid; returns the (fraction, mean tau) curve."""
    from scipy.stats import kendalltau

    fractions = COMPRESSION_FRACTIONS if fractions is None else fractions
    n_tasks = m.n_tasks
    curve = []
    for fi, frac in enumerate(fractions):
        size = max(1, round(frac * n_tasks))
        taus = []
        for trial in range(trials):
            rng = np.random.default_rng((seed, fi, trial))
            rows = np.sort(rng.choice(n_tasks, size=size, replace=False))
            values = m.dense_values()
            idx = [m.task_index(m.task_ids[r]) for r in rows]
            taus.append(float(kendalltau(values[idx].mean(axis=0), values.mean(axis=0)).statistic))
        curve.append((float(frac), float(np.mean(taus))))
    return tuple(curve)


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


def profile_distances_reference(values):
    """Dense T x T 1 - |pearson| distances between task rows; degenerate rows
    sit at 1, the diagonal at 0."""
    t = values.shape[0]
    std = values.std(axis=1)
    centered = values - values.mean(axis=1, keepdims=True)
    dist = np.ones((t, t))
    live = std > 0.0
    if live.any():
        sub = centered[live]
        norm = np.linalg.norm(sub, axis=1)
        corr = (sub @ sub.T) / np.outer(norm, norm)
        idx = np.flatnonzero(live)
        dist[np.ix_(idx, idx)] = 1.0 - np.abs(np.clip(corr, -1.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    return dist


def k_medoids_dense_reference(values, k, seed, max_swaps=50):
    """Dense FastPAM1: every round recomputes all k x T swap deltas from the
    T x T distances. The smallest delta wins; deltas within 1e-12 of it tie
    and go to the first in (medoid position, candidate) order."""
    dist = profile_distances_reference(values)
    t = values.shape[0]
    medoids = sorted(np.random.default_rng(seed).choice(t, size=k, replace=False).tolist())
    for _ in range(max_swaps):
        to_medoids = dist[:, medoids]
        nearest = to_medoids.argmin(axis=1)
        cost = to_medoids.min(axis=1)
        second = np.partition(to_medoids, 1, axis=1)[:, 1] if k > 1 else np.full(t, np.inf)
        kept = np.minimum(dist, cost[:, None])
        delta = (kept - cost[:, None]).sum(axis=0) + np.eye(k)[nearest].T @ (
            np.minimum(dist, second[:, None]) - kept
        )
        delta[:, medoids] = np.inf
        best = delta.min()
        if not best < -1e-12:
            break
        mi, cand = np.unravel_index(np.argmax(delta <= best + 1e-12), delta.shape)
        medoids[mi] = int(cand)
        medoids.sort()
    return sorted(medoids)


def k_medoids_reference(values, k, seed, max_swaps=50):
    """Per-swap oracle: every (medoid, candidate) swap costed by its own pass;
    the first swap that beats the running best by 1e-12 wins."""
    dist = profile_distances_reference(values)
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


def ed_greedy_reference(m, k):
    """Full-sort greedy: every step lexsorts all remaining tasks by (ED desc,
    variance desc, id asc), the variance of each row's sorted cells, and
    deletes the pick. Returns (order, trajectory)."""
    values = m.dense_values()
    variances = np.sort(values, axis=1).var(axis=1)
    ev = _GramEvaluator(values)
    id_rank = np.argsort(np.argsort(m.task_ids))
    remaining = np.arange(m.n_tasks)
    order, trajectory = [], []
    for _ in range(k):
        eds = ev.candidate_ed(remaining)
        pos = np.lexsort((id_rank[remaining], -variances[remaining], -eds))[0]
        best_t = int(remaining[pos])
        trajectory.append(ev.add(best_t))
        remaining = np.delete(remaining, pos)
        order.append(best_t)
    return order, trajectory


def discrimination_reference(values):
    """Per-row loop: point-biserial correlation of each row with the totals.
    Constant totals or a constant row (max == min) give exactly 0."""
    totals = values.mean(axis=0)
    out = np.zeros(values.shape[0])
    if totals.max() == totals.min():
        return out
    t_std = totals.std()
    tc = totals - totals.mean()
    for i, row in enumerate(values):
        r_std = row.std()
        if row.max() > row.min():
            out[i] = float(np.dot(row - row.mean(), tc) / (values.shape[1] * r_std * t_std))
    return out


def baseline_order_reference(m, k, method):
    """Task positions picked by the sort-key baselines, via ``sorted``."""
    values = m.dense_values()
    n_tasks = m.n_tasks
    if method == "max_variance":
        variances = np.sort(values, axis=1).var(axis=1)
        return sorted(range(n_tasks), key=lambda t: (-variances[t], m.task_ids[t]))[:k]
    if method == "irt_discrimination":
        disc = discrimination_reference(values)
        return sorted(range(n_tasks), key=lambda t: (-disc[t], m.task_ids[t]))[:k]
    pool, _ = ed_greedy_reference(m, min(2 * k, n_tasks))
    disc = discrimination_reference(values)
    return sorted(pool, key=lambda t: (-disc[t], m.task_ids[t]))[:k]


@st.composite
def tied_grids(draw):
    """Binary grids full of exact ties: copied rows, rows that permute another
    row's cells (equal variance), and shuffled unpadded ids, so string order
    differs from row order. Returns (matrix, k) with k up to T."""
    t = draw(st.integers(2, 24))
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = (rng.random((t, n)) < draw(st.sampled_from([0.2, 0.5, 0.8]))).astype(float)
    copies = draw(st.integers(0, t - 1))
    arr[rng.integers(0, t, copies)] = arr[rng.integers(0, t, copies)]
    shuffled = draw(st.integers(0, t - 1))
    dest = rng.integers(0, t, shuffled)
    arr[dest] = rng.permuted(arr[rng.integers(0, t, shuffled)], axis=1)
    assume(np.any(arr.var(axis=1) > 0.0))
    ids = [f"t{i}" for i in rng.permutation(t)]
    m = score_matrix(ids, [f"m{j}" for j in range(n)], arr)
    return m, draw(st.integers(1, t))


def best_first_lexsort_reference(scores, ids):
    """Descending score, ties by ascending id, as one ``np.lexsort``."""
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.lexsort((id_rank, -scores))


def ascending_key_reference(means, ids):
    """Ascending mean, ties by ascending id, by a Python sort key."""
    return sorted(range(len(ids)), key=lambda j: (means[j], ids[j]))


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

    def test_constant_continuous_rows_rejected(self):
        # row means of 0.1, 0.3 and 0.7 are inexact; centering still zeroes them
        m = binary(np.repeat([[0.1], [0.3], [0.7]], 7, axis=1))
        with pytest.raises(ValueError, match="all tasks are degenerate"):
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


class TestMatchesFullSortReference:
    """The O(T) picks equal the full-sort selection bit for bit under ties."""

    @settings(max_examples=300, deadline=None)
    @given(tied_grids())
    def test_ed_greedy(self, grid):
        m, k = grid
        order, trajectory = ed_greedy_reference(m, k)
        res = ed_greedy(m, k)
        assert res.selected == tuple(m.task_ids[t] for t in order)
        assert res.ed_trajectory == tuple(trajectory)

    @settings(max_examples=300, deadline=None)
    @given(tied_grids(), st.sampled_from(["max_variance", "irt_discrimination", "two_stage"]))
    def test_baselines(self, grid, method):
        m, k = grid
        order = baseline_order_reference(m, k, method)
        ev = _GramEvaluator(m.dense_values())
        res = baseline_select(m, k, method)
        assert res.selected == tuple(m.task_ids[t] for t in order)
        assert res.ed_trajectory == tuple(ev.add(t) for t in order)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(2, 40),
        st.sampled_from(["binary", "continuous", "rounded"]),
    )
    def test_discrimination_bitwise(self, seed, t, n, kind):
        rng = np.random.default_rng(seed)
        values = rng.random((t, n))
        if kind == "binary":
            values = (values < 0.5).astype(float)
        elif kind == "rounded":
            values = np.round(values, 1)
        values[rng.integers(0, t, t // 3)] = values[rng.integers(0, t, t // 3)]
        values[rng.integers(0, t, t // 4)] = 0.5  # zero-variance rows
        expect = discrimination_reference(values)
        assert _discrimination(values).tobytes() == expect.tobytes()
        rows = rng.integers(0, t, rng.integers(1, t + 1))
        assert _discrimination(values, rows).tobytes() == expect[rows].tobytes()

    def test_discrimination_constant_totals(self):
        # every column holds the same multiset, so every model total is equal
        base = np.array([0.0, 1.0, 1.0, 0.25])
        values = np.column_stack([np.roll(base, j) for j in range(6)])
        assert values.mean(axis=0).std() == 0.0
        assert _discrimination(values).tobytes() == discrimination_reference(values).tobytes()
        assert not _discrimination(values).any()


class TestBaselines:
    def test_max_variance_prefers_half_rate(self):
        rng = np.random.default_rng(0)
        n = 400
        rates = {"t000": 0.5, "t001": 0.9, "t002": 0.99}
        rows = np.vstack([(rng.random(n) < p).astype(float) for p in rates.values()])
        m = score_matrix(list(rates), [f"m{j}" for j in range(n)], rows)
        res = baseline_select(m, 1, "max_variance")
        assert res.selected == ("t000",)

    def test_equal_variance_ties_ignore_column_order(self):
        m = gen_irt_matrix(IrtSpec(k=3, tasks=2000, models=100, seed=5))
        values = m.dense_values()
        passes = dict(zip(m.task_ids, values.sum(axis=1)))
        picked = baseline_select(m, 40, "max_variance").selected
        tied = [t for t in picked if passes[t] == 49]
        assert len(tied) > 1 and tied == sorted(tied)
        # Rows with c and 100 - c passes have equal variance but different
        # cells, and ED-Greedy's candidate EDs can tie on them by rounding;
        # keeping the tasks below 50 passes leaves only same-multiset ties.
        m = m.subset_tasks([t for t in m.task_ids if passes[t] < 50])
        values = m.dense_values()
        rng = np.random.default_rng(1)
        for method, k in (("max_variance", 40), ("two_stage", 20)):
            want = baseline_select(m, k, method).selected
            for _ in range(3):
                perm = rng.permutation(m.n_models)
                shuffled = score_matrix(m.task_ids, [m.model_ids[j] for j in perm], values[:, perm])
                assert baseline_select(shuffled, k, method).selected == want, method

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

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(2, 300),
        n=st.integers(3, 12),
        k=st.integers(1, 20),
        rate=st.sampled_from([0.2, 0.5, 0.8]),
    )
    def test_k_medoids_matches_dense_reference_under_ties(self, seed, t, n, k, rate):
        # binary rows with copied and constant rows: many swap deltas tie
        # exactly, so the incremental deltas must keep the dense tie rule
        assume(k <= t)
        rng = np.random.default_rng(seed)
        values = (rng.random((t, n)) < rate).astype(float)
        copies = rng.integers(0, t // 2 + 1)
        values[rng.integers(0, t, copies)] = values[rng.integers(0, t, copies)]
        values[rng.integers(0, t, rng.integers(0, t // 4 + 1))] = float(rng.integers(0, 2))
        assert _k_medoids(values, k, seed) == k_medoids_dense_reference(values, k, seed)

    def test_k_medoids_memory_linear_in_tasks(self):
        # a T x T distance matrix alone would take 72 MB, 30x the grid's
        # bytes; the first round sets the peak, so two swaps suffice
        rng = np.random.default_rng(8)
        values = (rng.random((3000, 100)) < 0.5).astype(float)
        tracemalloc.start()
        try:
            _k_medoids(values, 16, 0, max_swaps=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * values.nbytes

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

    def test_constant_rows_have_zero_discrimination(self):
        # t000 rises with the totals, t003 falls; t001 and t002 are constant
        # over 15 models the means of 0.7 and 0.1 are inexact
        rise = np.linspace(0.0, 1.0, 15)
        values = np.vstack([rise, np.full(15, 0.7), np.full(15, 0.1), 0.5 * (1.0 - rise)])
        disc = _discrimination(values)
        assert disc[1] == 0.0 and disc[2] == 0.0
        res = baseline_select(binary(values), 3, "irt_discrimination")
        assert res.selected == ("t000", "t001", "t002")

    def test_constant_totals_give_zero_discrimination(self):
        # every model total is exactly 0.7, but their mean and std are not
        d = np.array([0.0625, 0.125, 0.25])
        values = np.vstack([0.7 - d, 0.7 + d])
        totals = values.mean(axis=0)
        assert totals.max() == totals.min() and totals.std() > 0.0
        assert not _discrimination(values).any()

    def test_constant_tasks_sit_at_distance_one(self):
        rng = np.random.default_rng(2)
        values = rng.random((4, 11))
        values[1] = 0.1
        values[3] = 0.7
        z = _unit_rows(values)
        assert not z[[1, 3]].any()
        work = np.empty((3, 4, 4))
        d = _distance_rows(z, np.array([1, 3]), work)
        np.testing.assert_array_equal(d, [[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])


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

    @pytest.mark.parametrize("kind", ["binary", "continuous"])
    def test_equals_per_trial_loop(self, kind):
        rng = np.random.default_rng(5)
        values = rng.random((90, 40))
        if kind == "binary":
            values = (values < rng.uniform(0.3, 0.7, (90, 1))).astype(float)
        m = binary(values)
        curve = compression_curve(m, trials=7, seed=4)
        assert curve.curve == compression_curve_reference(m, trials=7, seed=4)

    def test_equals_per_trial_loop_with_undefined_trials(self):
        # three tasks and four models: some single-task subsets rank every
        # model equally, so those trials' tau is NaN, as is their mean
        m = binary(np.array([[1.0, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))
        fractions = (0.3, 0.7, 1.0)
        curve = compression_curve(m, trials=6, seed=1, fractions=fractions)
        ref = compression_curve_reference(m, trials=6, seed=1, fractions=fractions)
        assert math.isnan(curve.curve[0][1])
        assert np.array_equal(np.array(curve.curve), np.array(ref), equal_nan=True)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, pool, trials):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            compression_curve(pool, trials=trials)

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, pool, frac):
        with pytest.raises(ValueError, match=r"fractions must lie in \(0, 1\]"):
            compression_curve(pool, trials=2, fractions=(0.5, frac))

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


class TestBestFirst:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30))
    def test_matches_lexsort_and_sort_key(self, seed, rows, n):
        # few integer levels give many exact ties; unpadded shuffled ids make
        # string order differ from position order
        rng = np.random.default_rng(seed)
        scores = rng.integers(-3, 4, (rows, n)).astype(float)
        ids = [f"m{i}" for i in rng.permutation(n)]
        stacked = _best_first(scores, ids)
        for r in range(rows):
            order = _best_first(scores[r], ids)
            np.testing.assert_array_equal(order, best_first_lexsort_reference(scores[r], ids))
            np.testing.assert_array_equal(stacked[r], order)
            assert _best_first(-scores[r], ids).tolist() == ascending_key_reference(scores[r], ids)


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
