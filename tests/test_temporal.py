import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spectradiag.association as association
import spectradiag.temporal as temporal

from spectradiag import (
    EdSeries,
    SuiteScores,
    cohort_bootstrap_compare,
    diversity_insertion_probe,
    ed_of_matrix,
    ed_vs_model_count,
    fixed_variance_subset,
    mann_kendall,
    saturation_fit,
    score_matrix,
    sliding_window_ed,
    temporal_information_density,
)
from spectradiag.association import _block_rows
from spectradiag.spectral import _column_resample_eds, _gram, _gram_ed, center
from spectradiag.temporal import CohortComparison, _window_ed


def quarter_matrix(draw):
    """A partial-credit grid (cells in quarters) with some model columns
    copied, so equal columns and all-equal subsets are common."""
    t = draw(st.integers(2, 12))
    n = draw(st.integers(2, 10))
    cells = draw(st.lists(st.integers(0, 4), min_size=t * n, max_size=t * n))
    x = np.asarray(cells, dtype=float).reshape(t, n) / 4.0
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n))
    x = np.hstack([x, x[:, copies]])
    return score_matrix(
        [f"t{i}" for i in range(t)], [f"m{j}" for j in range(x.shape[1])], x
    )


def ed_vs_model_count_reference(m, counts, trials, seed):
    """One column slice and one ``ed_of_matrix`` call per subset."""
    values = m.dense_values()
    out = []
    for ci, count in enumerate(counts):
        n_trials = 1 if count == m.n_models else trials
        eds = []
        for trial in range(n_trials):
            rng = np.random.default_rng((seed, ci, trial))
            cols = np.sort(rng.choice(m.n_models, size=count, replace=False))
            eds.append(ed_of_matrix(values[:, cols]))
        eds = np.asarray(eds)
        out.append((int(count), float(eds.mean()), float(eds.std())))
    return out


def insertion_reference(m, late_ids, early_ids, trials, seed):
    """The late cohort's ED and, per trial, its ED with the drawn early model
    inserted, one column slice and one ``ed_of_matrix`` call each."""
    late = [m.model_index(i) for i in late_ids]
    early = [m.model_index(i) for i in early_ids]
    values = m.dense_values()
    base = ed_of_matrix(values[:, late])
    eds = []
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        pick = int(rng.choice(early))
        eds.append(ed_of_matrix(values[:, late + [pick]]))
    return base, np.array(eds)


def make_suite(table):
    table = np.asarray(table, dtype=float)
    n, k = table.shape
    return SuiteScores(
        tuple(f"m{j:03d}" for j in range(n)), tuple(f"b{i}" for i in range(k)), table
    )


def cohort_bootstrap_reference(s, group_a, group_b, sample, iterations, seed):
    """Per-iteration loop: draw both resamples, copy each k x sample block and
    score it with ``_window_ed``. Returns the comparison and both ED arrays."""
    idx_a = [s.model_ids.index(m) for m in group_a]
    idx_b = [s.model_ids.index(m) for m in group_b]
    table = s.benchmark_table()
    ed_a = np.empty(iterations)
    ed_b = np.empty(iterations)
    for i in range(iterations):
        rng = np.random.default_rng((seed, i))
        cols_a = rng.choice(idx_a, size=sample, replace=True)
        cols_b = rng.choice(idx_b, size=sample, replace=True)
        ed_a[i] = _window_ed(table[:, cols_a], standardize=True)
        ed_b[i] = _window_ed(table[:, cols_b], standardize=True)
    deltas = ed_b - ed_a
    pooled = math.sqrt((ed_a.var() + ed_b.var()) / 2.0)
    d = float(deltas.mean() / pooled) if pooled > 0.0 else 0.0
    low, high = np.percentile(deltas, [2.5, 97.5])
    cmp = CohortComparison(
        delta=float(deltas.mean()),
        ci=(float(low), float(high)),
        cohens_d=d,
        p_direction=float((ed_b > ed_a).mean()),
        iterations=iterations,
        seed=seed,
    )
    return cmp, ed_a, ed_b


@st.composite
def cohort_cases(draw):
    """Small-integer suites with copied models, two cohorts of >= 10 models
    and resamples small enough that some benchmarks are constant in them."""
    n = draw(st.integers(12, 40))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 3, size=(n, k)).astype(float) / 4.0
    copies = draw(st.integers(0, n // 2))
    table[rng.integers(0, n, copies)] = table[rng.integers(0, n, copies)]
    s = make_suite(table)
    ids = list(s.model_ids)
    groups = [
        [ids[j] for j in rng.choice(n, size=draw(st.integers(10, n)), replace=False)]
        for _ in range(2)
    ]
    return s, groups, draw(st.integers(1, 25)), draw(st.integers(1, 30)), draw(st.integers(0, 99))


class TestSlidingWindow:
    def test_identical_benchmarks_flat_at_one(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(60)
        s = make_suite(np.column_stack([col, col, col]))
        series = sliding_window_ed(s, window=20, step=10)
        assert all(math.isclose(e, 1.0, rel_tol=1e-9) for e in series.ed)

    def test_window_equal_population_single_point(self):
        rng = np.random.default_rng(1)
        s = make_suite(rng.standard_normal((30, 4)))
        series = sliding_window_ed(s, window=30, step=10)
        assert len(series.ed) == 1
        assert series.x == (30.0,)

    def test_decorrelated_top_stratum_recovers(self):
        rng = np.random.default_rng(2)
        n = 300
        shared = rng.standard_normal(n)
        # middle models share one axis; top third gets independent signals
        cols = []
        for _ in range(4):
            col = shared + 0.3 * rng.standard_normal(n)
            col[200:] = rng.standard_normal(100)
            cols.append(col)
        s = make_suite(np.column_stack(cols))
        series = sliding_window_ed(s, window=100, step=50, standardize=True)
        assert series.ed[-1] > series.ed[1]

    def test_standardized_scale_invariance(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((80, 3))
        scaled = table.copy()
        scaled[:, 1] *= 10.0
        a = sliding_window_ed(make_suite(table), window=40, step=20, standardize=True)
        b = sliding_window_ed(make_suite(scaled), window=40, step=20, standardize=True)
        np.testing.assert_allclose(a.ed, b.ed, rtol=1e-9)

    def test_constant_row_contributes_nothing(self):
        # 0.1 has no exact mean over 300 copies; its rounded std (~1e-17) must
        # not rescale the centering residue into a unit-variance noise row.
        rng = np.random.default_rng(12)
        live = rng.standard_normal((3, 300))
        table = np.vstack([live, np.full(300, 0.1)])
        series = sliding_window_ed(make_suite(table.T), window=300, step=1, standardize=True)
        z = (live - live.mean(axis=1, keepdims=True)) / live.std(axis=1, keepdims=True)
        assert series.ed[0] == pytest.approx(ed_of_matrix(z, scheme="none"), rel=1e-12)
        assert series.ed[0] < 3.0

    def test_window_too_large(self):
        s = make_suite(np.random.default_rng(4).standard_normal((10, 3)))
        with pytest.raises(ValueError):
            sliding_window_ed(s, window=11)

    @pytest.mark.parametrize("standardize", [False, True])
    def test_stacks_match_per_window_across_chunks(self, monkeypatch, standardize):
        """A 3-window cell budget splits the 10 windows into stacks of 3, 3, 3
        and 1; each ED equals ``_window_ed`` of that window's own block, a
        slice of ``benchmark_table`` as the per-window loop took it."""
        table = np.random.default_rng(14).integers(0, 41, size=(115, 4)) / 40.0
        table[:, 2] = 0.1
        suite = make_suite(table)
        monkeypatch.setattr(association, "_CELL_BUDGET", 3 * 4 * 25)
        series = sliding_window_ed(suite, window=25, step=10, standardize=standardize)
        starts = range(0, 91, 10)
        assert series.x == tuple(float(s + 25) for s in starts)
        blocks = [suite.benchmark_table()[:, s : s + 25] for s in starts]
        want = [float(_window_ed(block, standardize)) for block in blocks]
        assert series.ed == tuple(want)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zscore_equals_std_reference(self, order):
        """Scaling each centered row by its root mean square equals dividing
        by ``np.std``, bit for bit, in either memory layout; the constant 0.1
        row centers to zeros and stays zero."""
        rng = np.random.default_rng(21)
        blocks = rng.integers(0, 41, size=(6, 4, 37)) / 40.0
        blocks[:, 1] = 0.1
        blocks[3, 2] = rng.standard_normal(37) * 1e3
        blocks = np.asarray(blocks, order=order)
        x = center(blocks, "task")
        std = blocks.std(axis=-1, keepdims=True)
        x /= np.where(std > 0.0, std, 1.0)
        assert _window_ed(blocks, True).tobytes() == _gram_ed(_gram(x)).tobytes()

    def test_series_invariants(self):
        with pytest.raises(ValueError):
            EdSeries(x=(1.0, 1.0), ed=(1.0, 2.0))
        with pytest.raises(ValueError):
            EdSeries(x=(1.0,), ed=(1.0, 2.0))

    def test_series_csv_roundtrip(self, tmp_path):
        series = EdSeries(x=(1.0, 2.0, 3.0), ed=(2.5, 2.1, 1.9))
        path = tmp_path / "series.csv"
        series.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,ed"
        assert lines[1].startswith("1.0,")


class TestMannKendall:
    def test_strictly_increasing(self):
        res = mann_kendall(np.arange(10.0))
        assert res.tau == 1.0
        assert res.p < 0.01

    def test_strictly_decreasing(self):
        res = mann_kendall(np.arange(10.0)[::-1])
        assert res.tau == -1.0
        assert res.p < 0.01

    def test_tie_corrected_hand_value(self):
        res = mann_kendall([1.0, 2.0, 2.0, 3.0])
        assert res.s == 5
        assert math.isclose(res.tau, 5 / math.sqrt(30), rel_tol=1e-12)

    def test_constant_series(self):
        res = mann_kendall(np.ones(8))
        assert res.tau == 0.0
        assert res.p == 1.0

    def test_exact_small_sample_p(self):
        # n=4 strictly increasing: P(S=6)=1/24, two-sided
        res = mann_kendall([1.0, 2.0, 3.0, 4.0])
        assert math.isclose(res.p, 2 / 24, rel_tol=1e-12)

    @staticmethod
    def exact_p_reference(n, s_obs):
        """Permutation counts by inversion number, one count at a time."""
        max_inv = n * (n - 1) // 2
        counts = np.zeros(max_inv + 1)
        counts[0] = 1.0
        for m in range(2, n + 1):
            new = np.zeros(max_inv + 1)
            cum = np.cumsum(counts)
            for inv in range(max_inv + 1):
                lo = inv - (m - 1)
                new[inv] = cum[inv] - (cum[lo - 1] if lo >= 1 else 0.0)
            counts = new
        s_values = max_inv - 2 * np.arange(max_inv + 1)
        return float(min(1.0, counts[np.abs(s_values) >= abs(s_obs)].sum() / counts.sum()))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_exact_p_equals_per_count_loop(self, n):
        max_inv = n * (n - 1) // 2
        for s in range(-max_inv, max_inv + 1, 2):
            assert temporal._mk_exact_p(n, s) == self.exact_p_reference(n, s)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            mann_kendall([1.0, 2.0, 3.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            mann_kendall([1.0, 2.0, np.nan, 3.0, 4.0])

    @staticmethod
    def sign_loop_reference(series) -> tuple[float, float, int]:
        """(tau, p, S) with S from the O(n^2) sign loop and the tie groups
        from ``np.unique``."""
        x = np.asarray(series, dtype=float)
        n = x.size
        s = 0
        for i in range(n - 1):
            s += int(np.sign(x[i + 1 :] - x[i]).sum())
        _, t = np.unique(x, return_counts=True)
        d1 = n * (n - 1) / 2.0
        d2 = d1 - float((t * (t - 1) / 2.0).sum())
        if d2 <= 0.0:
            return 0.0, 1.0, 0
        tau = s / math.sqrt(d1 * d2)
        if np.all(t == 1) and n <= 10:
            return tau, temporal._mk_exact_p(n, s), s
        var_s = (n * (n - 1) * (2 * n + 5) - float((t * (t - 1) * (2 * t + 5)).sum())) / 18.0
        if var_s <= 0.0:
            return tau, 1.0, s
        z = (s - (s > 0) + (s < 0)) / math.sqrt(var_s)
        return tau, math.erfc(abs(z) / math.sqrt(2.0)), s

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-3, 3).map(float), min_size=4, max_size=60),
            st.lists(
                st.floats(-100, 100) | st.sampled_from([0.0, -0.0]), min_size=4, max_size=60
            ),
        )
    )
    def test_equals_sign_loop(self, xs):
        res = mann_kendall(xs)
        assert type(res.s) is int
        assert (res.tau, res.p, res.s) == self.sign_loop_reference(xs)

    def test_normal_tail_does_not_underflow(self):
        # 40 strictly decreasing points: S = -780, var(S) = 40*39*85/18,
        # z = (S + 1) / sd ~ -9.1, where 1 - Phi(|z|) rounds to 0.
        from scipy.stats import norm

        n = 40
        res = mann_kendall(np.arange(float(n))[::-1])
        var_s = n * (n - 1) * (2 * n + 5) / 18.0
        z = (res.s + 1) / math.sqrt(var_s)
        assert res.s == -780
        assert res.p > 0.0
        assert math.isclose(res.p, 2.0 * norm.sf(abs(z)), rel_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100), min_size=4, max_size=25
        )
    )
    def test_reversal_negates_tau_keeps_p(self, xs):
        fwd = mann_kendall(xs)
        rev = mann_kendall(xs[::-1])
        assert math.isclose(fwd.tau, -rev.tau, abs_tol=1e-12)
        assert math.isclose(fwd.p, rev.p, abs_tol=1e-12)


class TestSaturation:
    @pytest.mark.parametrize("ed_inf,n_half", [(35.4, 35.0), (8.4, 7.0)])
    def test_noiseless_recovery_within_one_percent(self, ed_inf, n_half):
        n = np.arange(10.0, 151.0, 10.0)
        ed = ed_inf * n / (n + n_half)
        fit = saturation_fit(np.column_stack([n, ed]))
        assert abs(fit.ed_inf - ed_inf) / ed_inf < 0.01
        assert abs(fit.n_half - n_half) / n_half < 0.01
        assert not fit.boundary

    def test_constant_series_boundary(self):
        n = np.array([10.0, 20.0, 40.0, 80.0])
        fit = saturation_fit(np.column_stack([n, np.full(4, 5.0)]))
        assert fit.boundary
        assert math.isclose(fit.ed_inf, 5.0, rel_tol=1e-6)
        assert fit.n_half < 1e-6

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        n = np.arange(5.0, 100.0, 5.0)
        ed = 20.0 * n / (n + 12.0) + 0.05 * rng.standard_normal(n.size)
        base = saturation_fit(np.column_stack([n, ed]))
        scaled = saturation_fit(np.column_stack([n, 3.0 * ed]))
        assert math.isclose(scaled.ed_inf, 3.0 * base.ed_inf, rel_tol=1e-6)
        assert math.isclose(scaled.n_half, base.n_half, rel_tol=1e-6)

    def test_needs_three_distinct_n(self):
        with pytest.raises(ValueError):
            saturation_fit([[10.0, 5.0], [10.0, 5.1], [10.0, 4.9]])

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            saturation_fit([[10.0, 5.0], [20.0, -1.0], [30.0, 6.0]])

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(6)
        n = np.arange(10.0, 200.0, 10.0)
        ed = 15.0 * n / (n + 20.0) + 0.2 * rng.standard_normal(n.size)
        fit = saturation_fit(np.column_stack([n, ed]))
        assert abs(fit.ed_inf - 15.0) < 1.5
        assert abs(fit.n_half - 20.0) < 6.0


class TestEdVsModelCount:
    def test_full_count_matches(self, noise_matrix):
        pts = ed_vs_model_count(noise_matrix, [noise_matrix.n_models], seed=0)
        assert math.isclose(pts[0][1], ed_of_matrix(noise_matrix.dense_values()))
        assert pts[0][2] == 0.0

    def test_monotone_within_two_sd(self, irt_k5):
        pts = ed_vs_model_count(irt_k5, [10, 25, 50, 100], trials=10, seed=1)
        for (n1, m1, s1), (n2, m2, s2) in zip(pts, pts[1:]):
            assert m2 >= m1 - 2.0 * math.hypot(s1, s2 if s2 else s1)

    def test_seed_reproducible(self, noise_matrix):
        a = ed_vs_model_count(noise_matrix, [10, 20], trials=5, seed=2)
        assert a == ed_vs_model_count(noise_matrix, [10, 20], trials=5, seed=2)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, noise_matrix, trials):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            ed_vs_model_count(noise_matrix, [10, 20], trials=trials)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_subset_loop(self, data):
        m = data.draw(st.composite(quarter_matrix)())
        counts = data.draw(st.lists(st.integers(2, m.n_models), min_size=1, max_size=3))
        trials = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 1000))
        try:
            want = ed_vs_model_count_reference(m, counts, trials, seed)
        except ValueError:
            # On quarter cells a subset of equal columns centers to exact
            # zero, so the reference raises exactly when a subset is all equal.
            with pytest.raises(ValueError, match="all-zero spectrum"):
                ed_vs_model_count(m, counts, trials, seed)
            return
        got = ed_vs_model_count(m, counts, trials, seed)
        assert [c for c, _, _ in got] == [c for c, _, _ in want]
        for (_, mean, sd), (_, want_mean, want_sd) in zip(got, want):
            assert mean == pytest.approx(want_mean, rel=1e-9)
            assert sd == pytest.approx(want_sd, rel=1e-9, abs=1e-9 * want_mean)

    def test_equal_continuous_columns_raise(self):
        # Task-centering three equal continuous columns leaves rounding
        # noise that ed_of_matrix would score as ED 1.
        col = np.random.default_rng(3).random(20)
        m = score_matrix([f"t{i}" for i in range(20)], ["a", "b", "c"], np.column_stack([col] * 3))
        with pytest.raises(ValueError, match="all-zero spectrum"):
            ed_vs_model_count(m, [3])


class TestFixedVariance:
    def test_identical_cohort_distributions_kept(self):
        rng = np.random.default_rng(7)
        vals = (rng.random((5, 40)) < 0.5).astype(float)
        m = score_matrix(
            [f"t{i}" for i in range(5)], [f"m{j:02d}" for j in range(40)], vals
        )
        early = list(m.model_ids[:20])
        late = [m.model_ids[i] for i in range(20, 40)]
        # same generating process on both halves: typical tasks survive
        kept = fixed_variance_subset(m, early, late, tol=0.5)
        assert len(kept) >= 3

    def test_ceiling_task_dropped(self):
        early = [f"e{j}" for j in range(10)]
        late = [f"l{j}" for j in range(10)]
        # alternating outcomes early (var 0.25), solved by every late model (var 0)
        row = np.array([0.0, 1, 0, 1, 0, 1, 0, 1, 0, 1] + [1.0] * 10)
        m = score_matrix(["t0", "t1"], early + late, np.vstack([row, 1 - row]))
        kept = fixed_variance_subset(m, early, late, tol=0.2)
        assert kept == []

    def test_empty_cohort_rejected(self, noise_matrix):
        with pytest.raises(ValueError):
            fixed_variance_subset(noise_matrix, [], list(noise_matrix.model_ids))


class TestCohortCompare:
    def test_same_group_centered(self):
        rng = np.random.default_rng(8)
        s = make_suite(rng.standard_normal((60, 4)))
        ids = list(s.model_ids)
        res = cohort_bootstrap_compare(s, ids, ids, sample=40, iterations=200, seed=0)
        assert abs(res.delta) < 0.2
        assert 0.3 < res.p_direction < 0.7

    def test_diverse_beats_homogeneous(self):
        rng = np.random.default_rng(9)
        shared = rng.standard_normal(40)
        homog = np.column_stack([shared + 0.1 * rng.standard_normal(40) for _ in range(4)])
        diverse = rng.standard_normal((40, 4))
        table = np.vstack([homog, diverse])
        s = make_suite(table)
        a = list(s.model_ids[:40])
        b = list(s.model_ids[40:])
        res = cohort_bootstrap_compare(s, a, b, sample=30, iterations=200, seed=1)
        assert res.p_direction > 0.95
        assert res.delta > 0.5
        assert res.cohens_d > 1.0

    def test_small_group_rejected(self):
        s = make_suite(np.random.default_rng(10).standard_normal((30, 3)))
        with pytest.raises(ValueError):
            cohort_bootstrap_compare(s, list(s.model_ids[:5]), list(s.model_ids))

    def test_seed_reproducible(self):
        rng = np.random.default_rng(11)
        s = make_suite(rng.standard_normal((40, 3)))
        a = list(s.model_ids[:20])
        b = list(s.model_ids[20:])
        r1 = cohort_bootstrap_compare(s, a, b, sample=15, iterations=50, seed=4)
        r2 = cohort_bootstrap_compare(s, a, b, sample=15, iterations=50, seed=4)
        assert r1 == r2

    @settings(max_examples=80, deadline=None)
    @given(cohort_cases())
    def test_matches_per_iteration_reference(self, case):
        s, (a, b), sample, iterations, seed = case
        try:
            want, ed_a, ed_b = cohort_bootstrap_reference(s, a, b, sample, iterations, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                cohort_bootstrap_compare(s, a, b, sample=sample, iterations=iterations, seed=seed)
            return
        got = cohort_bootstrap_compare(s, a, b, sample=sample, iterations=iterations, seed=seed)
        assert got.delta == pytest.approx(want.delta, rel=1e-9, abs=1e-12)
        assert got.ci == pytest.approx(want.ci, rel=1e-9, abs=1e-12)
        # Cohen's d divides by the spread of the EDs; when every ED is the
        # same real number that spread is rounding noise on both sides.
        if math.sqrt((ed_a.var() + ed_b.var()) / 2.0) > 1e-9:
            assert got.cohens_d == pytest.approx(want.cohens_d, rel=1e-9, abs=1e-9)
        near_ties = np.count_nonzero(np.abs(ed_b - ed_a) <= 1e-9 * np.abs(ed_a))
        assert abs(got.p_direction - want.p_direction) * iterations <= near_ties + 1e-9
        assert (got.iterations, got.seed) == (want.iterations, want.seed)

    def test_draws_match_choice_over_ids(self, monkeypatch):
        seen = []

        def record(block, positions):
            seen.append((block, positions))
            return np.zeros(len(positions))

        monkeypatch.setattr(temporal, "_cohort_eds", record)
        s = make_suite(np.random.default_rng(13).standard_normal((40, 3)))
        a = [s.model_ids[j] for j in (5, 3, 17, 2, 30, 11, 8, 25, 39, 0, 21)]
        b = list(s.model_ids[10:35])
        cohort_bootstrap_compare(s, a, b, sample=17, iterations=6, seed=3)
        (block_a, pos_a), (block_b, pos_b) = seen
        idx_a = [s.model_ids.index(m) for m in a]
        idx_b = [s.model_ids.index(m) for m in b]
        np.testing.assert_array_equal(block_a, s.table[idx_a].T)
        np.testing.assert_array_equal(block_b, s.table[idx_b].T)
        for i in range(6):
            rng = np.random.default_rng((3, i))
            np.testing.assert_array_equal(
                np.asarray(idx_a)[pos_a[i]], rng.choice(idx_a, size=17, replace=True)
            )
            np.testing.assert_array_equal(
                np.asarray(idx_b)[pos_b[i]], rng.choice(idx_b, size=17, replace=True)
            )

    def test_blocks_match_per_iteration_reference(self, monkeypatch):
        """Three full blocks of iterations and a remainder agree with the
        per-iteration loop; each cohort is scored once per block."""
        rng = np.random.default_rng(15)
        s = make_suite(rng.integers(0, 5, size=(40, 3)) / 4.0)
        a, b = list(s.model_ids[:25]), list(s.model_ids[15:])
        sample = 2000
        rows = _block_rows(sample + 25 + 3 * 3)
        iterations = 3 * rows + rows // 2
        calls = []
        real = temporal._cohort_eds

        def counted(block, positions):
            calls.append(len(positions))
            return real(block, positions)

        monkeypatch.setattr(temporal, "_cohort_eds", counted)
        got = cohort_bootstrap_compare(s, a, b, sample=sample, iterations=iterations, seed=6)
        want, ed_a, ed_b = cohort_bootstrap_reference(s, a, b, sample, iterations, 6)
        # cohort a, then cohort b, per block
        assert calls == [n for n in (rows, rows, rows, rows // 2) for _ in range(2)]
        assert got.delta == pytest.approx(want.delta, rel=1e-9, abs=1e-12)
        assert got.ci == pytest.approx(want.ci, rel=1e-9, abs=1e-12)
        assert got.cohens_d == pytest.approx(want.cohens_d, rel=1e-9, abs=1e-9)
        near_ties = np.count_nonzero(np.abs(ed_b - ed_a) <= 1e-9 * np.abs(ed_a))
        assert abs(got.p_direction - want.p_direction) * iterations <= near_ties + 1e-9
        assert (got.iterations, got.seed) == (want.iterations, want.seed)

    @pytest.mark.parametrize("rare", [True, False])
    def test_constancy_head_matches_reference(self, monkeypatch, rare):
        """Benchmark b1 is 0.5 on every model but, when ``rare``, one per
        cohort at 0.75: some resamples of 30 draws from 12 models first draw
        that model after their 8-cell head. Without it every draw of b1 is
        equal. Either way each ED is the per-iteration loop's to 1e-12."""
        rng = np.random.default_rng(17)
        table = rng.standard_normal((24, 3))
        table[:, 1] = 0.5
        if rare:
            table[[3, 15], 1] = 0.75
        s = make_suite(table)
        a, b = list(s.model_ids[:12]), list(s.model_ids[12:])
        seen = []
        real = temporal._cohort_eds

        def record(block, positions):
            seen.append((block[1, positions], real(block, positions)))
            return seen[-1][1]

        monkeypatch.setattr(temporal, "_cohort_eds", record)
        cohort_bootstrap_compare(s, a, b, sample=30, iterations=40, seed=2)
        _, ed_a, ed_b = cohort_bootstrap_reference(s, a, b, 30, 40, 2)
        (drawn_a, got_a), (drawn_b, got_b) = seen
        np.testing.assert_allclose(got_a, ed_a, rtol=1e-12)
        np.testing.assert_allclose(got_b, ed_b, rtol=1e-12)
        drawn = np.vstack([drawn_a, drawn_b])
        head_equal = (drawn[:, :8] == 0.5).all(axis=1)
        if rare:
            assert (head_equal & (drawn[:, 8:] == 0.75).any(axis=1)).any()
        else:
            assert (drawn == 0.5).all()

    def test_peak_does_not_grow_with_iterations(self):
        """Draws and counts live for one block of iterations at a time, so
        8x the iterations adds only the per-iteration EDs (32 KB each)."""
        rng = np.random.default_rng(16)
        s = make_suite(rng.standard_normal((1200, 12)))
        a, b = list(s.model_ids[:600]), list(s.model_ids[600:])
        peaks = []
        for iterations in (500, 4000):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cohort_bootstrap_compare(s, a, b, sample=300, iterations=iterations, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_constant_benchmark_contributes_nothing(self):
        rng = np.random.default_rng(14)
        live = rng.standard_normal((60, 3))
        with_const = make_suite(np.column_stack([live, np.full(60, 0.1)]))
        without = make_suite(live)
        a, b = list(without.model_ids[:30]), list(without.model_ids[30:])
        got = cohort_bootstrap_compare(with_const, a, b, sample=40, iterations=100, seed=2)
        want = cohort_bootstrap_compare(without, a, b, sample=40, iterations=100, seed=2)
        assert got.delta == pytest.approx(want.delta, rel=1e-9, abs=1e-12)
        assert got.ci == pytest.approx(want.ci, rel=1e-9, abs=1e-12)
        assert got.p_direction == want.p_direction


class TestInsertionProbe:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, noise_matrix, trials):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            diversity_insertion_probe(
                noise_matrix, noise_matrix.model_ids[:5], noise_matrix.model_ids[5:], trials=trials
            )

    def test_identical_model_never_increases(self):
        rng = np.random.default_rng(12)
        base = (rng.random((40, 6)) < 0.5).astype(float)
        vals = np.column_stack([base, base[:, :1]])
        m = score_matrix(
            [f"t{i}" for i in range(40)], [f"m{j}" for j in range(7)], vals
        )
        late = [f"m{j}" for j in range(6)]
        frac = diversity_insertion_probe(m, late, ["m6"], trials=20, seed=0)
        assert frac == 0.0

    def test_orthogonal_profile_increases(self):
        # late cohort spans one graded ability axis plus a noise floor; the
        # inserted profile is independent of that axis and adds a direction
        rng = np.random.default_rng(13)
        t = 80
        ability = np.linspace(-1, 1, 8)
        probs = np.full((t, 8), 0.5)
        probs[:40] = 1 / (
            1 + np.exp(-(2 * ability[None, :] - np.linspace(-1, 1, 40)[:, None]))
        )
        late_cols = (rng.random((t, 8)) < probs).astype(float)
        ortho = (rng.random(t) < 0.5).astype(float)
        vals = np.column_stack([late_cols, ortho])
        m = score_matrix(
            [f"t{i}" for i in range(t)], [f"m{j}" for j in range(9)], vals
        )
        frac = diversity_insertion_probe(
            m, [f"m{j}" for j in range(8)], ["m8"], trials=10, seed=1
        )
        assert frac == 1.0

    def test_fraction_in_unit_interval(self, irt_k5):
        late = list(irt_k5.model_ids[:30])
        early = list(irt_k5.model_ids[30:60])
        frac = diversity_insertion_probe(irt_k5, late, early, trials=15, seed=2)
        assert 0.0 <= frac <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_trial_loop(self, data):
        m = data.draw(st.composite(quarter_matrix)())
        ids = list(m.model_ids)
        late = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True))
        early = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
        trials = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 1000))
        try:
            base, want = insertion_reference(m, late, early, trials, seed)
        except ValueError:
            with pytest.raises(ValueError, match="all-zero spectrum"):
                diversity_insertion_probe(m, late, early, trials, seed)
            return
        scored = []

        def recording(*args):
            scored.append(_column_resample_eds(*args))
            return scored[-1]

        with mock.patch.object(temporal, "_column_resample_eds", recording):
            frac = diversity_insertion_probe(m, late, early, trials, seed)
        (eds,) = scored
        assert eds[0] == pytest.approx(base, rel=1e-9)
        np.testing.assert_allclose(eds[1:], want, rtol=1e-9)
        # Decisions compare two EDs; a pair closer than rounding may go either way.
        decided = np.abs(want - base) > 1e-12 * base
        np.testing.assert_array_equal((eds[1:] > eds[0])[decided], (want > base)[decided])
        assert frac == (eds[1:] > eds[0]).sum() / trials


class TestTid:
    def test_constant_zero(self):
        series = EdSeries(x=(1.0, 2.0, 3.0), ed=(4.0, 4.0, 4.0))
        assert abs(temporal_information_density(series)) < 1e-12

    def test_exact_line(self):
        x = tuple(np.arange(1.0, 11.0))
        ed = tuple(2.0 - 0.01 * xv for xv in x)
        series = EdSeries(x=x, ed=ed)
        assert math.isclose(temporal_information_density(series), -0.01, rel_tol=1e-9)

    def test_noisy_line_within_two_se(self):
        rng = np.random.default_rng(14)
        x = np.arange(1.0, 51.0)
        noise = 0.05 * rng.standard_normal(50)
        ed = 3.0 - 0.02 * x + noise
        series = EdSeries(x=tuple(x), ed=tuple(ed))
        slope = temporal_information_density(series)
        resid = ed - np.polyval(np.polyfit(x, ed, 1), x)
        se = math.sqrt(
            float(resid @ resid) / (48 * float(((x - x.mean()) ** 2).sum()))
        )
        assert abs(slope + 0.02) < 2 * se
