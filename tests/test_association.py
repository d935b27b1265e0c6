import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import kendalltau, norm, pearsonr, spearmanr

from spectradiag import (
    correlation_ci,
    hierarchical_cluster,
    mean_pairwise_hamming,
    pairwise_correlation,
    partial_correlation,
    redundancy_flags,
    score_matrix,
    stratified_correlation,
    tetrachoric,
    tetrachoric_ed,
)
import spectradiag.association as association
from spectradiag.association import CorrMatrix, save_corr_csv, tetrachoric_matrix
from spectradiag.matrix_io import _read_csv_grid

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def tetrachoric_reference(table) -> float:
    """Scalar oracle: bracketed ``brentq`` root of the quadrature orthant
    probability, one pair at a time."""
    n11, n10, n01, n00 = np.asarray(table, dtype=float).ravel()
    n = n11 + n10 + n01 + n00
    if n11 == 0.0 or n00 == 0.0:
        return -0.999
    if n10 == 0.0 or n01 == 0.0:
        return 0.999
    h = norm.ppf(1.0 - (n11 + n10) / n)
    k = norm.ppf(1.0 - (n11 + n01) / n)

    def objective(rho):
        base = norm.cdf(h) * norm.cdf(k)
        if rho != 0.0:
            r = 0.5 * rho * (_GL_NODES + 1.0)
            onem = 1.0 - r * r
            f = np.exp(-(h * h - 2.0 * h * k * r + k * k) / (2.0 * onem)) / np.sqrt(onem)
            base += np.sign(rho) * (f @ (0.5 * abs(rho) * _GL_WEIGHTS)) / (2.0 * np.pi)
        return 1.0 - norm.cdf(h) - norm.cdf(k) + base - n11 / n

    lo, hi = -0.999999, 0.999999
    if objective(lo) > 0.0:
        return -0.999
    if objective(hi) < 0.0:
        return 0.999
    return brentq(objective, lo, hi, xtol=1e-10)


def tetrachoric_matrix_reference(values) -> np.ndarray:
    v = np.asarray(values, dtype=bool)
    n = v.shape[1]
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = v[:, i], v[:, j]
            table = [[np.sum(a & b), np.sum(a & ~b)], [np.sum(~a & b), np.sum(~a & ~b)]]
            out[i, j] = out[j, i] = tetrachoric_reference(table)
    return out


def orthant_norm_reference(h, k, rho):
    """``association._orthant`` with the normal CDF taken from ``scipy.stats.norm``."""
    ch, ck = norm.cdf(h), norm.cdf(k)
    r = 0.5 * rho[:, None] * (_GL_NODES + 1.0)
    onem = 1.0 - r * r
    h2, k2 = h[:, None], k[:, None]
    integrand = np.exp(-(h2 * h2 - 2.0 * h2 * k2 * r + k2 * k2) / (2.0 * onem)) / np.sqrt(onem)
    return 1.0 - ch - ck + (ch * ck + 0.5 * rho * (integrand @ _GL_WEIGHTS) / (2.0 * np.pi))


def tetrachoric_pairs_norm_reference(n11, n10, n01, n00):
    """``association._tetrachoric_pairs`` with thresholds from ``norm.ppf``.

    The orthant and the Newton solve are looked up on the module at call
    time, so patching ``association._orthant`` routes them both through
    ``orthant_norm_reference``.
    """
    n = n11 + n10 + n01 + n00
    clamp, bracket = association._RHO_CLAMP, association._RHO_BRACKET
    rho = np.where((n11 == 0.0) | (n00 == 0.0), -clamp, clamp)
    fit = np.flatnonzero((n11 > 0.0) & (n00 > 0.0) & (n10 > 0.0) & (n01 > 0.0))
    h = norm.ppf(1.0 - (n11[fit] + n10[fit]) / n[fit])
    k = norm.ppf(1.0 - (n11[fit] + n01[fit]) / n[fit])
    target = n11[fit] / n[fit]
    below = association._orthant(h, k, np.full(fit.size, -bracket)) > target
    above = association._orthant(h, k, np.full(fit.size, bracket)) < target
    rho[fit[below]] = -clamp
    rho[fit[above & ~below]] = clamp
    inner = ~(below | above)
    fit, h, k, target = fit[inner], h[inner], k[inner], target[inner]
    root = association._solve_rho(h, k, target)
    residual = association._orthant(h, k, root) - target
    bad = ~(np.abs(residual) < 1e-6)
    if bad.any():
        worst = residual[bad][np.argmax(np.abs(residual[bad]))]
        raise ValueError(f"tetrachoric root misses the joint pass rate by {worst:.2e}")
    rho[fit] = root
    return rho


def average_linkage_reference(c):
    """Oracle merge list: every cluster-pair linkage recomputed by ``np.ix_``
    at every merge; ties go to the lexicographically smallest id pair."""
    dist = 1.0 - np.abs(c.values)
    index = {cid: i for i, cid in enumerate(c.ids)}
    clusters = [(i,) for i in c.ids]
    merges = []
    while len(clusters) > 1:
        best = None
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                a, b = sorted((clusters[ai], clusters[bi]))
                rows = [index[i] for i in a]
                cols = [index[j] for j in b]
                key = (float(dist[np.ix_(rows, cols)].mean()), a, b)
                if best is None or key < best:
                    best = key
        d, a, b = best
        merges.append((a, b, d))
        clusters = [cl for cl in clusters if cl not in (a, b)]
        clusters.append(tuple(sorted(a + b)))
    return merges


@st.composite
def binary_grids(draw):
    """Small 0/1 task x model grids with no constant column; zero cells are
    common and some columns are exact copies."""
    t = draw(st.integers(4, 30))
    n = draw(st.integers(3, 6))
    cells = draw(st.lists(st.booleans(), min_size=t * n, max_size=t * n))
    v = np.asarray(cells, dtype=float).reshape(t, n)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=2))
    v = np.column_stack([v, v[:, copies]])
    passes = v.sum(axis=0)
    assume(np.all((passes > 0) & (passes < t)))
    return v


class TestPairwise:
    def test_affine_pearson(self):
        x = np.arange(10.0)
        c = pairwise_correlation(np.vstack([x, 2 * x + 1]), method="pearson")
        assert math.isclose(c.values[0, 1], 1.0)

    def test_monotone_nonlinear_spearman(self):
        x = np.linspace(-2, 2, 15)
        c_s = pairwise_correlation(np.vstack([x, x**3]), method="spearman")
        c_p = pairwise_correlation(np.vstack([x, x**3]), method="pearson")
        assert math.isclose(c_s.values[0, 1], 1.0)
        assert c_p.values[0, 1] < 1.0

    def test_full_reversal_kendall(self):
        c = pairwise_correlation(
            np.array([[1.0, 2, 3], [3.0, 2, 1]]), method="kendall"
        )
        assert math.isclose(c.values[0, 1], -1.0)

    def test_zero_variance_flagged(self):
        c = pairwise_correlation(np.array([[1.0, 1, 1], [1.0, 2, 3]]), ids=["flat", "up"])
        assert c.degenerate_ids == ("flat",)
        assert np.isnan(c.values[0, 1])
        assert c.has_undefined

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            pairwise_correlation(np.array([[1.0, 2], [2.0, 1]]))

    def test_all_constant_rows_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = pairwise_correlation(np.array([[1.0, 1, 1], [0.0, 0, 0]]))
        assert c.degenerate_ids == c.ids
        assert np.isnan(c.values).all()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=20, unique=True))
    def test_rank_methods_invariant_under_monotone_transform(self, xs):
        x = np.asarray(xs, dtype=float)
        rng = np.random.default_rng(0)
        y = rng.permutation(x)
        for method in ("spearman", "kendall"):
            base = pairwise_correlation(np.vstack([x, y]), method=method).values[0, 1]
            warp_x = pairwise_correlation(
                np.vstack([x**3, y]), method=method
            ).values[0, 1]
            warp_y = pairwise_correlation(
                np.vstack([x, 2.0 * y + 5.0]), method=method
            ).values[0, 1]
            assert math.isclose(base, warp_x, abs_tol=1e-12)
            assert math.isclose(base, warp_y, abs_tol=1e-12)


@st.composite
def score_tables(draw):
    """Small integer tables, series as rows: rank ties, constant rows and
    duplicated rows all occur."""
    p = draw(st.integers(2, 6))
    n = draw(st.integers(3, 12))
    cells = draw(st.lists(st.integers(0, 5), min_size=p * n, max_size=p * n))
    table = np.asarray(cells, dtype=float).reshape(p, n)
    copies = draw(st.lists(st.integers(0, p - 1), max_size=2))
    return np.vstack([table, table[copies]])


class TestPairwiseAgainstScipy:
    @settings(max_examples=200, deadline=None)
    @given(table=score_tables(), method=st.sampled_from(["pearson", "spearman"]))
    def test_matches_per_pair_scipy(self, table, method):
        c = pairwise_correlation(table, method=method)
        assert np.array_equal(c.values, c.values.T, equal_nan=True)
        flat = [np.all(row == row[0]) for row in table]
        ref = pearsonr if method == "pearson" else spearmanr
        for i in range(len(table)):
            for j in range(len(table)):
                if flat[i] or flat[j]:
                    assert np.isnan(c.values[i, j])
                elif i == j:
                    assert c.values[i, j] == 1.0
                else:
                    want = ref(table[i], table[j]).statistic
                    assert abs(c.values[i, j] - want) < 1e-12


def kendall_rows_reference(a, b):
    """Per-row scipy oracle for the batched tau-b kernel."""
    return np.array(
        [kendalltau(row, b if b.ndim == 1 else b[r]).statistic for r, row in enumerate(a)]
    )


def kendall_ci_reference(x, y, iterations, level=0.95, seed=0):
    """Per-resample loop: one scipy tau-b per non-degenerate resample."""
    n = x.size
    stats = []
    for i in range(iterations):
        idx = np.random.default_rng((seed, i)).integers(0, n, size=n)
        xs, ys = x[idx], y[idx]
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        stats.append(float(kendalltau(xs, ys).statistic))
    alpha = (1.0 - level) / 2.0
    low, high = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


@st.composite
def tied_stacks(draw):
    """Small-integer rows with heavy ties, against one vector or a paired stack."""
    n = draw(st.integers(2, 25))
    rows = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)
    a = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float)
    if draw(st.booleans()):
        b = np.array(draw(row), dtype=float)
    else:
        b = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float)
    return a, b


class TestKendallKernel:
    @settings(max_examples=300, deadline=None)
    @given(tied_stacks())
    def test_matches_scipy_per_row(self, stack):
        a, b = stack
        got = association._kendall_tau_b(a, b)
        assert np.array_equal(got, kendall_rows_reference(a, b), equal_nan=True)

    def test_constant_rows_and_nan_cells_give_nan(self):
        a = np.array([[2.0, 2, 2, 2], [1, 3, 2, 4], [1, np.nan, 2, 4]])
        got = association._kendall_tau_b(a, np.array([1.0, 2, 3, 4]))
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == kendalltau(a[1], [1, 2, 3, 4]).statistic
        assert np.isnan(association._kendall_tau_b(a[1:2], np.full(4, 5.0))).all()

    @pytest.mark.parametrize("paired", [False, True])
    def test_chunks_match_one_pass(self, monkeypatch, paired):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 33)).round(1)
        b = rng.normal(size=(40, 33) if paired else 33).round(1)
        want = kendall_rows_reference(a, b)
        monkeypatch.setattr(association, "_CELL_BUDGET", 100)
        assert np.array_equal(association._kendall_tau_b(a, b), want)


@st.composite
def few_level_ranks(draw):
    """Dense ranks of few-level integer rows, n in 3..300, against one row or
    a paired stack: dx * dy falls on both sides of n."""
    n = draw(st.integers(3, 300))
    rows = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, draw(st.integers(1, 41)), size=(rows, n)).astype(float)
    b = rng.integers(0, draw(st.integers(1, 41)), size=(draw(st.sampled_from([1, rows])), n))
    return association._dense_ranks(a)[0], association._dense_ranks(b.astype(float))[0]


class TestKendallTableCounts:
    @settings(max_examples=200, deadline=None)
    @given(few_level_ranks())
    def test_table_counts_equal_merge_counts(self, ranks):
        xr, yr = ranks
        n = xr.shape[1]
        dis, ntie = association._table_counts(xr, yr, xr.max() + 1, yr.max() + 1)
        joint = np.sort(xr * n + yr, axis=1)
        assert np.array_equal(dis, association._inversions(joint % n))
        assert np.array_equal(ntie, association._tied_pairs(association._run_starts(joint)))

    @pytest.mark.parametrize("cells", [association._CELL_BUDGET, 700])
    def test_41_level_suite_equals_scipy_per_pair(self, monkeypatch, cells):
        """Means over 40 items take 41 levels, so 41 * 41 <= 3000 puts every
        pair on the table path; a 700-cell budget splits the pairs."""
        rng = np.random.default_rng(4)
        table = rng.binomial(40, rng.uniform(0.1, 0.9, size=(12, 1)), size=(12, 3000)) / 40.0
        table[5] = 0.3
        monkeypatch.setattr(association, "_CELL_BUDGET", cells)
        got = pairwise_correlation(table, method="kendall")
        assert got.degenerate_ids == ("series_5",)
        # the matrix mirrors the upper triangle; scipy's tau(y, x) may differ
        # from tau(x, y) in the last bit
        for i, j in zip(*np.triu_indices(12, 1)):
            if 5 in (i, j):
                assert np.isnan(got.values[i, j]) and np.isnan(got.values[j, i])
            else:
                assert got.values[i, j] == kendalltau(table[i], table[j]).statistic


def paired_rows_reference(a, b, method):
    """Per-row scipy oracle for ``_paired_corr``; None for a constant side."""
    ref = {"pearson": pearsonr, "spearman": spearmanr, "kendall": kendalltau}[method]
    out = []
    for r, row in enumerate(a):
        other = b if b.ndim == 1 else b[r]
        flat = np.all(row == row[0]) or np.all(other == other[0])
        out.append(None if flat else ref(row, other).statistic)
    return out


class TestPairedCorr:
    @settings(max_examples=300, deadline=None)
    @given(tied_stacks(), st.sampled_from(["pearson", "spearman", "kendall"]))
    def test_matches_scipy_per_row(self, stack, method):
        a, b = stack
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = association._paired_corr(a, b, method)
        assert got.shape == (len(a),)
        for value, want in zip(got, paired_rows_reference(a, b, method)):
            if want is None:
                assert np.isnan(value)
            else:
                assert abs(value - want) <= 1e-12

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_constant_rows_give_nan_without_warning(self, method):
        # 0.1 * 3 / 3 is not 0.1, so centring leaves rounding noise behind
        a = np.array([[0.1, 0.1, 0.1], [1.0, 2.0, 4.0], [3.0, 1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = association._paired_corr(a, np.array([1.0, 2.0, 3.0]), method)
            flat_b = association._paired_corr(a, np.full(3, 0.1), method)
        assert np.isnan(got[0]) and np.isfinite(got[1:]).all()
        assert np.isnan(flat_b).all()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown correlation method"):
            association._paired_corr(np.ones((1, 3)), np.arange(3.0), "tau")


def corr_ci_reference(x, y, iterations, statistic, level=0.95, seed=0):
    """Per-resample loop: one scipy statistic per non-degenerate resample."""
    n = x.size
    stats = []
    for i in range(iterations):
        idx = np.random.default_rng((seed, i)).integers(0, n, size=n)
        xs, ys = x[idx], y[idx]
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        stats.append(float(statistic(xs, ys).statistic))
    alpha = (1.0 - level) / 2.0
    low, high = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


def correlation_ci_block_reference(x, y, method, iterations, seed):
    """The block loop with its own constancy mask: each block of resamples is
    drawn in place, and only those whose sides are both non-constant are
    scored."""
    n = x.size
    stats = []
    for block in association._blocks(iterations, n):
        idx = np.array(
            [np.random.default_rng((seed, i)).integers(0, n, size=n) for i in range(iterations)[block]]
        )
        xs, ys = x[idx], y[idx]
        live = ~(np.all(xs == xs[:, :1], axis=1) | np.all(ys == ys[:, :1], axis=1))
        stats.extend(association._paired_corr(xs[live], ys[live], method))
    if not stats:
        raise ValueError("every bootstrap resample was degenerate")
    alpha = (1.0 - 0.95) / 2.0
    low, high = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


@st.composite
def ci_pairs(draw):
    """Paired vectors of 3-39 points, small-integer (1-4 levels, so many
    resamples have a constant side) or continuous."""
    n = draw(st.integers(3, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3, 4, None]))
    if levels is None:
        x, y = rng.standard_normal((2, n))
    else:
        x = rng.integers(0, levels, n).astype(float)
        y = np.where(rng.random(n) < 0.5, x, rng.integers(0, levels, n))
    return x, y


class TestCorrelationCi:
    @settings(max_examples=150, deadline=None)
    @given(
        ci_pairs(),
        st.sampled_from(["pearson", "spearman", "kendall"]),
        st.integers(1, 399),
        st.integers(0, 2**16),
    )
    def test_equals_block_loop_with_constancy_mask(self, pair, method, iterations, seed):
        x, y = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(association, "_CELL_BUDGET", 7 * x.size)
            try:
                want = correlation_ci_block_reference(x, y, method, iterations, seed)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    correlation_ci(x, y, method, iterations=iterations, seed=seed)
                return
            assert correlation_ci(x, y, method, iterations=iterations, seed=seed) == want

    @pytest.mark.parametrize("method", ["pearson", "spearman", "kendall"])
    def test_every_resample_degenerate(self, method):
        x = np.arange(8.0)
        with pytest.raises(ValueError, match="^every bootstrap resample was degenerate$"):
            correlation_ci(x, np.full(8, 0.5), method, iterations=50, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_rejected(self, bad, side):
        x, y = np.random.default_rng(1).standard_normal((2, 20))
        (x if side == "x" else y)[3] = bad
        with pytest.raises(ValueError, match="x and y must be finite"):
            correlation_ci(x, y, "pearson", iterations=200, seed=1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("method", ["pearson", "spearman", "kendall"])
    def test_fewer_than_three_points_rejected(self, method, n):
        x, y = np.random.default_rng(2).standard_normal((2, n))
        wording = f"^paired observations must be at least 3, got {n}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=wording):
                correlation_ci(x, y, method, iterations=50, seed=1)
            with pytest.raises(ValueError, match=wording):
                pairwise_correlation(np.vstack([x, y]), method=method)

    @pytest.mark.parametrize("method", ["pearson", "spearman", "kendall"])
    def test_three_points_give_an_interval(self, method):
        x, y = np.array([0.1, 0.5, 0.3]), np.array([0.2, 0.9, 0.4])
        low, high = correlation_ci(x, y, method, iterations=200, seed=1)
        assert -1.0 <= low <= high <= 1.0

    @pytest.mark.parametrize("n", [6, 60])
    def test_kendall_equals_per_resample_loop(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 3, n).astype(float)
        y = x + rng.integers(0, 2, n)
        monkeypatch.setattr(association, "_CELL_BUDGET", 7 * n)
        got = correlation_ci(x, y, method="kendall", iterations=300, seed=2)
        assert got == kendall_ci_reference(x, y, 300, seed=2)

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    @pytest.mark.parametrize("n", [6, 60])
    def test_pearson_spearman_equal_per_resample_loop(self, monkeypatch, method, n):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 3, n).astype(float)
        y = x + rng.integers(0, 2, n)
        monkeypatch.setattr(association, "_CELL_BUDGET", 7 * n)
        got = correlation_ci(x, y, method=method, iterations=300, seed=2)
        ref = pearsonr if method == "pearson" else spearmanr
        want = corr_ci_reference(x, y, 300, ref, seed=2)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_no_iterations_rejected(self, iterations):
        x = np.arange(10.0)
        with pytest.raises(ValueError, match=f"iterations must be at least 1, got {iterations}"):
            correlation_ci(x, x, iterations=iterations)

    def test_perfect_line_collapses(self):
        x = np.linspace(0, 1, 50)
        low, high = correlation_ci(x, x, iterations=200, seed=0)
        assert low > 0.999 and high == 1.0

    def test_independent_noise_contains_zero(self):
        hits = 0
        for seed in range(100, 120):
            rng = np.random.default_rng(seed)
            x, y = rng.standard_normal((2, 200))
            low, high = correlation_ci(x, y, iterations=300, seed=seed)
            hits += low <= 0.0 <= high
        assert hits >= 18

    def test_seed_reproducible(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 40))
        assert correlation_ci(x, y, iterations=100, seed=7) == correlation_ci(
            x, y, iterations=100, seed=7
        )


class TestPartial:
    def test_independent_confound_preserves_raw(self):
        rng = np.random.default_rng(0)
        x, y, z = rng.standard_normal((3, 500))
        x = x + 0.5 * y
        raw = pairwise_correlation(np.vstack([x, y])).values[0, 1]
        part = partial_correlation(x, y, z)
        assert abs(raw - part) < 0.05

    def test_perfect_confounder_vanishes(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(100)
        part = partial_correlation(z, z, z + 0.0)
        assert part == 0.0

    def test_shared_confounder_drops(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(400)
        x = z + 0.05 * rng.standard_normal(400)
        y = z + 0.05 * rng.standard_normal(400)
        raw = pairwise_correlation(np.vstack([x, y])).values[0, 1]
        part = partial_correlation(x, y, z)
        assert raw > 0.9
        assert abs(part) < 0.3

    def test_exact_negation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        z = rng.standard_normal(50)
        assert math.isclose(partial_correlation(x, -x, z), -1.0, abs_tol=1e-9)

    def test_constant_z_rejected(self):
        x = np.arange(12.0)
        with pytest.raises(ValueError, match="constant"):
            partial_correlation(x, x, np.ones(12))


class TestStratified:
    def test_simpson_reversal(self):
        rng = np.random.default_rng(4)
        n = 120
        # two anti-correlated clouds shifted so the pooled trend is positive
        x1 = rng.standard_normal(n)
        y1 = -x1 + 0.2 * rng.standard_normal(n)
        x2 = x1 + 6.0
        y2 = -x2 + 12.0 + 0.2 * rng.standard_normal(n)
        x = np.concatenate([x1, x2])
        y = np.concatenate([y1, y2])
        strata = np.array(["a"] * n + ["b"] * n)
        per = stratified_correlation(x, y, strata)
        pooled = pairwise_correlation(np.vstack([x, y])).values[0, 1]
        assert pooled > 0.3
        assert all(rho < -0.8 for (_, _, rho, _) in per)

    def test_single_stratum_equals_pairwise(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 30))
        per = stratified_correlation(x, y, np.zeros(30, dtype=int))
        pooled = pairwise_correlation(np.vstack([x, y])).values[0, 1]
        assert math.isclose(per[0][2], pooled, abs_tol=1e-12)

    def test_small_group_flagged(self):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 8))
        strata = np.array(["s"] * 4 + ["l"] * 4)
        per = stratified_correlation(x, y, strata)
        assert all(not reliable for (_, n, _, reliable) in per)

    def test_empty_level_omitted_with_warning(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 12))
        strata = np.array(["a"] * 12)
        with pytest.warns(UserWarning, match="empty"):
            per = stratified_correlation(x, y, strata, levels=["a", "ghost"])
        assert [rec[0] for rec in per] == ["a"]


class TestTetrachoric:
    def test_independence(self):
        assert tetrachoric([[25, 25], [25, 25]]) == 0.0

    def test_zero_threshold_oracle(self):
        # equal marginals 1/2: rho = sin(2 pi (p11 - 1/4))
        assert abs(tetrachoric([[12, 6], [6, 12]]) - 0.5) < 1e-3
        assert abs(tetrachoric([[9, 9], [9, 9]]) - 0.0) < 1e-3

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="marginal"):
            tetrachoric([[0, 0], [10, 10]])

    def test_matrix_names_first_constant_model(self):
        v = np.array([[1, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 0]], dtype=float)
        m = score_matrix(["t1", "t2", "t3"], ["a", "b", "c", "d"], v)
        with pytest.raises(ValueError, match="^model 'b' has a constant outcome column"):
            tetrachoric_matrix(m)

    def test_zero_cell_clamps(self):
        assert tetrachoric([[10, 0], [5, 10]]) == 0.999
        assert tetrachoric([[0, 10], [10, 5]]) == -0.999

    def test_unconverged_root_raises(self, monkeypatch):
        # a check that raises, unlike an assert, survives ``python -O``
        import spectradiag.association as association

        monkeypatch.setattr(association, "_solve_rho", lambda h, k, target: np.zeros_like(h))
        with pytest.raises(ValueError, match="misses the joint pass rate"):
            tetrachoric([[12, 6], [6, 12]])

    @pytest.mark.parametrize("true_rho", [-0.5, 0.0, 0.5, 0.9])
    def test_recovery_from_thresholded_normals(self, true_rho):
        rng = np.random.default_rng(42)
        z = rng.multivariate_normal([0, 0], [[1, true_rho], [true_rho, 1]], size=100_000)
        x = z[:, 0] > 0.4
        y = z[:, 1] > -0.3
        table = [
            [np.sum(x & y), np.sum(x & ~y)],
            [np.sum(~x & y), np.sum(~x & ~y)],
        ]
        assert abs(tetrachoric(table) - true_rho) < 0.05

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=4, max_size=4))
    def test_scalar_matches_brentq_reference(self, cells):
        table = np.reshape(cells, (2, 2))
        assume(0 < table[0].sum() < table.sum() and 0 < table[:, 0].sum() < table.sum())
        assert abs(tetrachoric(table) - tetrachoric_reference(table)) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(binary_grids())
    def test_matrix_matches_brentq_reference(self, v):
        m = score_matrix(
            [f"t{i}" for i in range(v.shape[0])], [f"m{j}" for j in range(v.shape[1])], v
        )
        got = tetrachoric_matrix(m)
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(got, tetrachoric_matrix_reference(v), rtol=0, atol=1e-8)


class TestTetrachoricNormExact:
    """The ``scipy.special`` ndtr/ndtri calls give the same bits as ``scipy.stats.norm``."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-0.999999, 0.999999)
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_orthant(self, triples):
        h, k, rho = np.asarray(triples, dtype=float).T
        got = association._orthant(h, k, rho)
        assert np.array_equal(got, orthant_norm_reference(h, k, rho))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(*[st.integers(0, 80)] * 4), min_size=1, max_size=20).filter(
            lambda ts: all(
                0 < a + b < a + b + c + d and 0 < a + c < a + b + c + d for a, b, c, d in ts
            )
        )
    )
    def test_pairs(self, tables):
        n11, n10, n01, n00 = np.asarray(tables, dtype=float).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(association, "_orthant", orthant_norm_reference)
            want = tetrachoric_pairs_norm_reference(n11, n10, n01, n00)
        assert np.array_equal(association._tetrachoric_pairs(n11, n10, n01, n00), want)

    @settings(max_examples=50, deadline=None)
    @given(binary_grids())
    def test_matrix_bit_identical(self, v):
        m = score_matrix(
            [f"t{i}" for i in range(v.shape[0])], [f"m{j}" for j in range(v.shape[1])], v
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(association, "_orthant", orthant_norm_reference)
            mp.setattr(association, "_tetrachoric_pairs", tetrachoric_pairs_norm_reference)
            want = tetrachoric_matrix(m)
        assert np.array_equal(tetrachoric_matrix(m), want)


class TestTetrachoricEd:
    def test_needs_three_models(self):
        m = score_matrix(["t1", "t2"], ["a", "b"], [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            tetrachoric_ed(m)

    def test_identical_columns_collapse_to_one(self):
        col = np.array([1.0, 0, 1, 0, 1])
        m = score_matrix(
            [f"t{i}" for i in range(5)], ["a", "b", "c"], np.column_stack([col] * 3)
        )
        # the +/-0.999 zero-cell clamp keeps this marginally above exactly 1
        assert math.isclose(tetrachoric_ed(m), 1.0, abs_tol=0.01)

    def test_independent_columns_stay_high(self):
        rng = np.random.default_rng(0)
        vals = (rng.random((400, 8)) < 0.5).astype(float)
        m = score_matrix(
            [f"t{i}" for i in range(400)], [f"m{j}" for j in range(8)], vals
        )
        assert tetrachoric_ed(m) > 5.0

    def test_below_pearson_ed_on_irt(self, irt_k5):
        sub = irt_k5.subset_models(irt_k5.model_ids[:40])
        ed_t = tetrachoric_ed(sub)
        # model-side Pearson ED for the same axis convention
        from spectradiag import ed_of_correlation

        pearson_model_corr = np.corrcoef(sub.dense_values(), rowvar=False)
        ed_p = ed_of_correlation(pearson_model_corr)
        assert ed_t < ed_p
        assert 0.2 < ed_t / ed_p < 1.0


class TestClustering:
    def test_duplicate_series_id_rejected(self):
        """A repeated id would merge two members into one group."""
        values = [[1, 0.2, 0.9], [0.2, 1, 0.1], [0.9, 0.1, 1]]
        with pytest.raises(ValueError, match="^duplicate series id: 'a'$"):
            CorrMatrix(("a", "a", "b"), values, "pearson")
        rows = np.random.default_rng(0).standard_normal((3, 8))
        with pytest.raises(ValueError, match="^duplicate series id: 'x'$"):
            pairwise_correlation(rows, ids=["x", "x", "y"])

    def test_identical_series_merge_first_at_zero(self):
        base = np.array([1.0, 2, 3, 4, 1])
        rows = np.vstack([base, base, base[::-1] * 0.5])
        c = pairwise_correlation(rows, ids=["a", "b", "c"], method="pearson")
        g = hierarchical_cluster(c, n_groups=2)
        assert g.merges[0][0] == ("a",) and g.merges[0][1] == ("b",)
        assert abs(g.merges[0][2]) < 1e-12
        assert ("a", "b") in g.groups

    def test_cut_at_zero_gives_singletons(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((4, 12))
        c = pairwise_correlation(rows, method="pearson")
        g = hierarchical_cluster(c, cut_height=0.0)
        assert len(g.groups) == 4
        assert all(len(grp) == 1 for grp in g.groups)

    def test_block_structure_recovered(self):
        rng = np.random.default_rng(2)
        f1, f2 = rng.standard_normal((2, 60))
        rows = np.vstack(
            [
                f1 + 0.2 * rng.standard_normal(60),
                f1 + 0.2 * rng.standard_normal(60),
                f2 + 0.2 * rng.standard_normal(60),
                f2 + 0.2 * rng.standard_normal(60),
            ]
        )
        c = pairwise_correlation(rows, ids=["a1", "a2", "b1", "b2"], method="pearson")
        g = hierarchical_cluster(c, n_groups=2)
        assert sorted(g.groups) == [("a1", "a2"), ("b1", "b2")]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((5, 20))
        ids = ["v", "w", "x", "y", "z"]
        c1 = pairwise_correlation(rows, ids=ids, method="pearson")
        perm = [3, 0, 4, 1, 2]
        c2 = pairwise_correlation(rows[perm], ids=[ids[i] for i in perm], method="pearson")
        g1 = hierarchical_cluster(c1, n_groups=2)
        g2 = hierarchical_cluster(c2, n_groups=2)
        assert g1.groups == g2.groups
        assert [m[:2] for m in g1.merges] == [m[:2] for m in g2.merges]

    def test_undefined_entries_rejected(self):
        c = pairwise_correlation(np.array([[1.0, 1, 1], [0.0, 1, 2]]))
        with pytest.raises(ValueError, match="undefined"):
            hierarchical_cluster(c, n_groups=1)

    def test_merge_heights_nondecreasing(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((7, 25))
        c = pairwise_correlation(rows, method="pearson")
        g = hierarchical_cluster(c, n_groups=1)
        heights = [h for _, _, h in g.merges]
        assert heights == sorted(heights)


class TestClusteringAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 12), groups=st.integers(1, 4))
    def test_same_tree_as_block_mean_reference(self, seed, p, groups):
        rows = np.random.default_rng(seed).standard_normal((p, 8))
        c = pairwise_correlation(rows, method="pearson")
        g = hierarchical_cluster(c, n_groups=groups)
        ref = average_linkage_reference(c)
        assert [m[:2] for m in g.merges] == [m[:2] for m in ref]
        heights = np.array([m[2] for m in g.merges])
        np.testing.assert_allclose(heights, [m[2] for m in ref], rtol=0, atol=1e-12)


class TestRedundancyFlags:
    def test_threshold_logic(self):
        ids = ["a", "b", "c"]
        vals = np.array(
            [
                [1.0, 0.96, -0.64],
                [0.96, 1.0, 0.75],
                [-0.64, 0.75, 1.0],
            ]
        )
        c = pairwise_correlation(np.eye(3), ids=ids)  # placeholder, rebuilt below
        from spectradiag import CorrMatrix

        c = CorrMatrix(tuple(ids), vals, "spearman")
        flags = redundancy_flags(c)
        assert [(p[0], p[1]) for p in flags.redundant] == [("a", "b")]
        assert [(p[0], p[1]) for p in flags.vet_fail] == [("a", "b"), ("b", "c")]
        assert [(p[0], p[1]) for p in flags.complementary] == [("a", "c")]

    @staticmethod
    def pair_loop_reference(c, hi, vet, comp):
        """One pass over the pairs i < j, skipping undefined correlations."""
        redundant, vet_fail, complementary = [], [], []
        for i in range(len(c.ids)):
            for j in range(i + 1, len(c.ids)):
                rho = c.values[i, j]
                if not np.isfinite(rho):
                    continue
                pair = (c.ids[i], c.ids[j], float(rho))
                if rho > hi:
                    redundant.append(pair)
                if rho > vet:
                    vet_fail.append(pair)
                if rho < comp:
                    complementary.append(pair)
        return tuple(redundant), tuple(vet_fail), tuple(complementary)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["pearson", "spearman", "kendall"]),
    )
    def test_matches_pair_loop_with_nan_rows(self, p, seed, method):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 4, size=(p, 8)) + rng.standard_normal((p, 8))
        rows[rng.random(p) < 0.3] = 0.5  # constant rows: NaN entries
        c = pairwise_correlation(rows, method=method)
        flags = redundancy_flags(c, hi=0.4, vet=0.1, comp=-0.2)
        got = (flags.redundant, flags.vet_fail, flags.complementary)
        assert got == self.pair_loop_reference(c, 0.4, 0.1, -0.2)

    def test_infinite_entry_rejected(self):
        """Only NaN is undefined, so an infinite entry fails the range check
        and never reaches the flags."""
        from spectradiag import CorrMatrix

        vals = np.array([[1.0, np.inf, 0.95], [np.inf, 1.0, -np.inf], [0.95, -np.inf, 1.0]])
        with pytest.raises(ValueError, match=r"correlations must lie in \[-1, 1\]"):
            CorrMatrix(("a", "b", "c"), vals, "pearson")


class TestHamming:
    def test_identical_and_complementary(self):
        col = np.array([1.0, 0, 1])
        same = score_matrix(["t1", "t2", "t3"], ["a", "b"], np.column_stack([col, col]))
        assert mean_pairwise_hamming(same) == 0.0
        flip = score_matrix(
            ["t1", "t2", "t3"], ["a", "b"], np.column_stack([col, 1 - col])
        )
        assert mean_pairwise_hamming(flip) == 1.0

    def test_hand_count(self):
        m = score_matrix(
            ["t1", "t2", "t3"], ["a", "b"], np.array([[0.0, 1], [1, 1], [1, 0]])
        )
        assert math.isclose(mean_pairwise_hamming(m), 2 / 3)

    @settings(max_examples=100, deadline=None)
    @given(binary_grids())
    def test_matches_pairwise_loop(self, v):
        m = score_matrix(
            [f"t{i}" for i in range(v.shape[0])], [f"m{j}" for j in range(v.shape[1])], v
        )
        n = v.shape[1]
        ref = np.mean(
            [np.mean(v[:, i] != v[:, j]) for i in range(n) for j in range(i + 1, n)]
        )
        assert abs(mean_pairwise_hamming(m) - ref) < 1e-12


class TestSerialization:
    def test_square_csv(self, tmp_path):
        rows = np.random.default_rng(0).standard_normal((3, 10))
        c = pairwise_correlation(rows, ids=["x", "y", "z"])
        path = tmp_path / "corr.csv"
        save_corr_csv(c, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,x,y,z"
        assert len(lines) == 4

    def test_square_csv_reads_back_through_grid_reader(self, tmp_path):
        rows = np.random.default_rng(1).standard_normal((4, 10))
        rows[2] = 0.5  # degenerate row: NaN row and column
        c = pairwise_correlation(rows, ids=["w", "x", "y", "z"])
        path = tmp_path / "corr.csv"
        save_corr_csv(c, path)
        corner, row_ids, col_ids, values, missing, _ = _read_csv_grid(path, "id", "id")
        assert corner == "id"
        assert row_ids == col_ids == list(c.ids)
        assert np.array_equal(values, c.values, equal_nan=True)
        assert np.array_equal(missing, np.isnan(c.values))
        assert missing[2].all() and missing[:, 2].all()
