import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from spectradiag import (
    SuiteScores,
    best_subset_search,
    ceiling_oracle,
    composite_ceiling,
    composite_ranking,
    dirichlet_fragility,
    information_density,
    kendall_tau,
    leave_one_out,
    load_suite,
    suite_ed,
)
from spectradiag.association import _block_rows
from spectradiag.composite import (
    FragilityReport,
    LeaveOneOut,
    SubsetSearchResult,
    _contenders,
    _zscore_columns,
)
from spectradiag.matrix_io import MatrixValidationError


def make_suite(table, bench_ids=None, model_ids=None):
    table = np.asarray(table, dtype=float)
    n, k = table.shape
    return SuiteScores(
        tuple(model_ids or [f"m{j:02d}" for j in range(n)]),
        tuple(bench_ids or [f"b{i}" for i in range(k)]),
        table,
    )


def ranking_reference(s, weights):
    """The sort-by-key ranking: score descending, then id ascending."""
    scores = _zscore_columns(s.table, s.benchmark_ids) @ np.asarray(weights, dtype=float)
    order = sorted(range(s.n_models), key=lambda i: (-scores[i], s.model_ids[i]))
    return [s.model_ids[i] for i in order]


def champion_reference(model_ids, z, w):
    """Smallest id among the exact maxima of the scores ``z @ w``.

    Each score is the correctly rounded sum of its row's products, so equal
    rows score equally wherever they sit (a BLAS product such as ``z @ W.T``
    can round two equal rows differently: it did on an 18 x 3 table).
    """
    scores = np.array([math.fsum(row) for row in z * w])
    top = scores.max()
    return min(model_ids[i] for i in np.flatnonzero(scores == top))


def dirichlet_fragility_reference(s, alpha=1.0, samples=10_000, seed=0):
    """One champion per Dirichlet sample, scored sample by sample."""
    k = s.n_benchmarks
    z = _zscore_columns(s.table, s.benchmark_ids)
    baseline = champion_reference(s.model_ids, z, np.full(k, 1.0 / k))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(k, alpha), size=samples)
    champions = [champion_reference(s.model_ids, z, w) for w in weights]
    changes = sum(c != baseline for c in champions)
    return FragilityReport(
        champion_change_rate=changes / samples,
        distinct_champions=len(set(champions)),
        alpha=alpha,
        samples=samples,
        seed=seed,
        equal_weight_champion=baseline,
    )


@st.composite
def suites_with_duplicates(draw, integer=True):
    """Suites where some models copy another's scores exactly; ids are
    shuffled so that id order is not row order. Integer cells also make
    distinct models tie on some weightings."""
    n = draw(st.integers(3, 25))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 4, size=(n, k)) if integer else rng.standard_normal((n, k))
    table = table.astype(float)
    copies = draw(st.integers(1, n - 1))
    table[rng.integers(0, n, copies)] = table[rng.integers(0, n, copies)]
    assume(np.all(table.max(axis=0) > table.min(axis=0)))
    return make_suite(table, model_ids=[f"m{j:02d}" for j in rng.permutation(n)])


@st.composite
def front_suites(draw):
    """Suites where every model, or most of them, is on the Pareto front, so
    the contender filter drops little: an anti-correlated pair, k = 12
    independent normals and points on an arc, with shuffled ids."""
    kind = draw(st.sampled_from(["anti", "normal12", "arc"]))
    n = draw(st.integers(3, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "anti":
        a = rng.standard_normal(n)
        table = np.column_stack([a, -a])
    elif kind == "normal12":
        table = rng.standard_normal((n, 12))
    else:
        theta = rng.uniform(0.0, np.pi / 2, n)
        table = np.column_stack([np.cos(theta), np.sin(theta)])
    return make_suite(table, model_ids=[f"m{j:03d}" for j in rng.permutation(n)])


@pytest.fixture
def random_suite():
    rng = np.random.default_rng(0)
    return make_suite(rng.standard_normal((40, 5)))


class TestRanking:
    def test_single_benchmark_matches_column(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(10)
        s = make_suite(np.column_stack([col, rng.standard_normal(10)]))
        ranking = composite_ranking(s.subset_benchmarks(("b0",)), [1.0])
        want = [s.model_ids[i] for i in np.argsort(-col, kind="stable")]
        assert ranking == want

    def test_identical_columns_any_weights(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(12)
        s = make_suite(np.column_stack([col, col]))
        assert composite_ranking(s, [1, 0]) == composite_ranking(s, [0.2, 0.8])

    def test_anticorrelated_columns_reverse(self):
        col = np.linspace(0, 1, 8)
        s = make_suite(np.column_stack([col, -col]))
        r1 = composite_ranking(s, [1, 0])
        r2 = composite_ranking(s, [0, 1])
        assert r1 == r2[::-1]

    def test_weight_rescaling_invariant(self, random_suite):
        a = composite_ranking(random_suite, [1, 2, 3, 4, 5])
        b = composite_ranking(random_suite, [0.1, 0.2, 0.3, 0.4, 0.5])
        assert a == b

    def test_zero_variance_column_rejected(self):
        s = make_suite(np.column_stack([np.ones(6), np.arange(6.0)]))
        with pytest.raises(ValueError, match="zero variance"):
            composite_ranking(s, [1, 1])

    def test_tie_break_lexicographic(self):
        s = make_suite(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], model_ids=["zed", "mid", "abe"]
        )
        ranking = composite_ranking(s, [1, 1])
        assert ranking.index("abe") < ranking.index("zed")

    @settings(max_examples=100, deadline=None)
    @given(suites_with_duplicates(), st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_matches_sort_by_key_reference(self, s, raw_weights):
        weights = np.array(raw_weights[: s.n_benchmarks], dtype=float)
        assume(weights.sum() > 0)
        assert composite_ranking(s, weights) == ranking_reference(s, weights)


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau(list("abcd"), list("abcd")) == 1.0

    def test_reversed(self):
        assert kendall_tau(list("abcd"), list("dcba")) == -1.0

    def test_hand_value(self):
        assert math.isclose(kendall_tau(list("abcd"), ["a", "b", "d", "c"]), 2 / 3)

    def test_shared_subset_only(self):
        assert kendall_tau(list("abcx"), list("abcy")) == 1.0


def kendall_tau_reference(rank_a, rank_b):
    """scipy tau-b of the positions of the shared ids in both orderings."""
    shared = [i for i in rank_a if i in rank_b]
    a = [rank_a.index(m) for m in shared]
    b = [rank_b.index(m) for m in shared]
    return float(kendalltau(a, b).statistic)


class TestKendallTauAgainstScipy:
    @settings(max_examples=100, deadline=None)
    @given(st.permutations(range(12)), st.permutations(range(12)), st.integers(2, 12))
    def test_equals_scipy(self, perm_a, perm_b, keep):
        rank_a = [f"m{i}" for i in perm_a]
        rank_b = [f"m{i}" for i in perm_b[:keep]] + ["x"]
        assert kendall_tau(rank_a, rank_b) == kendall_tau_reference(rank_a, rank_b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_leave_one_out_equals_scipy(self, seed):
        rng = np.random.default_rng(seed)
        s = make_suite(rng.normal(size=(60, 5)).round(1))
        full = composite_ranking(s, np.ones(5))
        for bench, rec in leave_one_out(s).items():
            keep = [b for b in s.benchmark_ids if b != bench]
            reduced = composite_ranking(s.subset_benchmarks(keep), np.ones(4))
            assert rec.tau_vs_full == kendall_tau_reference(full, reduced)


class TestCeiling:
    def test_reference_values(self):
        assert round(composite_ceiling(-0.64), 2) == 0.42
        assert round(composite_ceiling(0.96), 2) == 0.99
        assert composite_ceiling(1.0) == 1.0

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            composite_ceiling(-1.0)

    def test_zero_is_sqrt_half(self):
        assert math.isclose(composite_ceiling(0.0), math.sqrt(0.5), rel_tol=1e-12)

    @pytest.mark.parametrize("rho", [-0.9, -0.64, -0.3, 0.0, 0.5, 0.96])
    def test_oracle_matches_closed_form(self, rho):
        probe = ceiling_oracle(rho)
        assert abs(probe.value - composite_ceiling(rho)) < 1e-3
        assert 0.99 <= probe.t_star <= 1.01

    @pytest.mark.parametrize("grid", [0, -3])
    def test_oracle_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match=f"grid must be at least 1, got {grid}"):
            ceiling_oracle(0.5, grid=grid)


class TestFragility:
    def test_single_benchmark_never_changes(self):
        rng = np.random.default_rng(3)
        s = make_suite(rng.standard_normal((15, 2))).subset_benchmarks(("b0",))
        rep = dirichlet_fragility(s, alpha=1.0, samples=500, seed=0)
        assert rep.champion_change_rate == 0.0
        assert rep.distinct_champions == 1

    def test_identical_columns_stable(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(20)
        s = make_suite(np.column_stack([col, col, col]))
        for alpha in (0.1, 1.0, 10.0):
            rep = dirichlet_fragility(s, alpha=alpha, samples=400, seed=1)
            assert rep.champion_change_rate == 0.0

    def test_concentration_ordering(self):
        # two anti-correlated benchmarks with distinct leaders
        rng = np.random.default_rng(5)
        a = rng.standard_normal(30)
        s = make_suite(np.column_stack([a, -a + 0.1 * rng.standard_normal(30)]))
        diffuse = dirichlet_fragility(s, alpha=0.1, samples=2000, seed=2)
        clustered = dirichlet_fragility(s, alpha=10.0, samples=2000, seed=2)
        assert diffuse.champion_change_rate >= clustered.champion_change_rate

    def test_seed_reproducible(self, random_suite):
        a = dirichlet_fragility(random_suite, samples=300, seed=9)
        b = dirichlet_fragility(random_suite, samples=300, seed=9)
        assert a == b

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(suites_with_duplicates(integer=False), front_suites()),
        st.sampled_from([0.1, 1.0, 10.0]),
        st.integers(1, 2500),
        st.integers(0, 1000),
    )
    def test_matches_per_sample_reference(self, s, alpha, samples, seed):
        # With continuous cells and three or more distinct rows only copied
        # models tie in exact arithmetic (two distinct rows make every column
        # two-valued, and the equal-weight scores can tie exactly), and any
        # rounding order scores copies equally. Up to 2500 samples spans
        # three product chunks, so the later two score the contenders only.
        assume(len(np.unique(s.table, axis=0)) >= 3)
        got = dirichlet_fragility(s, alpha=alpha, samples=samples, seed=seed)
        assert got == dirichlet_fragility_reference(s, alpha=alpha, samples=samples, seed=seed)

    @pytest.mark.parametrize("alpha", [0.05, 0.09])
    def test_small_alpha_chunks_match_reference(self, alpha):
        """Below alpha 0.1 numpy draws Dirichlet rows through beta variates;
        the chunked draws must still continue one whole-sample stream."""
        s = make_suite(np.random.default_rng(4).standard_normal((20, 4)))
        got = dirichlet_fragility(s, alpha=alpha, samples=2500, seed=3)
        assert got == dirichlet_fragility_reference(s, alpha=alpha, samples=2500, seed=3)

    def test_duplicate_tie_goes_to_smallest_id(self):
        # "m1" and "m0" score identically and beat "m2" under every weighting.
        s = make_suite([[3.0, 2.0], [1.0, 0.0], [3.0, 2.0]], model_ids=["m1", "m2", "m0"])
        rep = dirichlet_fragility(s, samples=50, seed=0)
        assert rep.equal_weight_champion == "m0"
        assert rep.distinct_champions == 1 and rep.champion_change_rate == 0.0

    def test_signed_zero_copies_tie_as_copies(self):
        # "m2" and "m4" copy "m0", "m2" with -0.0 in a column whose mean is
        # exactly 0.0, so its z-score keeps the sign; all three are one row
        table = np.array([[0.0, 1.0], [1.0, -1.0], [-0.0, 1.0], [-1.0, -1.0], [0.0, 1.0]])
        s = make_suite(table)
        z = _zscore_columns(s.table, s.benchmark_ids)
        assert np.signbit(z[2, 0]) and not np.signbit(z[0, 0])
        for samples in (50, 2500):
            rep = dirichlet_fragility(s, samples=samples, seed=3)
            assert rep == dirichlet_fragility_reference(s, samples=samples, seed=3)
            assert rep == dirichlet_fragility(make_suite(table + 0.0), samples=samples, seed=3)
            assert rep.distinct_champions == 2 and rep.equal_weight_champion == "m00"

    def test_contenders_follow_dominance_rule(self):
        # rows in id order; pivot 1 = (1, 1) ties row 0 in benchmark 1 but
        # comes later (kept), ties row 2 in benchmark 0 and comes first
        # (dropped), beats row 3 everywhere (dropped), and loses to row 4 in
        # benchmark 0 (kept)
        z = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0], [2.0, -1.0]])
        got = _contenders(np.ascontiguousarray(z.T), np.array([1]))
        np.testing.assert_array_equal(got, [0, 1, 4])

    def test_memory_bounded_by_chunk(self):
        # The full 3000 x 10000 score matrix alone would take 240 MB.
        s = make_suite(np.random.default_rng(6).standard_normal((3000, 12)))
        tracemalloc.start()
        try:
            dirichlet_fragility(s, samples=10_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_memory_flat_in_samples(self):
        """Weights are drawn per chunk and no per-sample champion array is
        kept, so ten times the samples may not raise the peak by a fifth."""
        s = make_suite(np.random.default_rng(6).standard_normal((3000, 12)))
        peaks = []
        for samples in (10_000, 100_000):
            tracemalloc.start()
            try:
                dirichlet_fragility(s, samples=samples, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, random_suite, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            dirichlet_fragility(random_suite, samples=samples)

    def test_score_block_within_cell_budget(self):
        """Each chunk's weights and scores share the cell budget (2 MB), so
        the peak is about the z-scores and one chunk; a 1024 x 3000 block of
        scores alone would take 24.6 MB."""
        s = make_suite(np.random.default_rng(6).standard_normal((3000, 12)))
        tracemalloc.start()
        try:
            dirichlet_fragility(s, samples=10_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_sub_blocks_match_reference(self):
        """400 distinct rows and 3 benchmarks make a first chunk of 650
        samples, so 1100 samples take that chunk, which prunes the rows, and
        a second chunk against the contenders left."""
        s = make_suite(np.random.default_rng(7).standard_normal((400, 3)))
        assert _block_rows(400 + 3) == 650
        got = dirichlet_fragility(s, samples=1100, seed=3)
        assert got == dirichlet_fragility_reference(s, samples=1100, seed=3)


def leave_one_out_reference(s):
    """One reduced suite per benchmark through the public functions."""
    full_ed = suite_ed(s)
    full = composite_ranking(s, np.ones(s.n_benchmarks))
    out = {}
    for bench in s.benchmark_ids:
        reduced = s.subset_benchmarks([b for b in s.benchmark_ids if b != bench])
        rank = composite_ranking(reduced, np.ones(reduced.n_benchmarks))
        out[bench] = LeaveOneOut(full_ed - suite_ed(reduced), kendall_tau(full, rank))
    return out


class TestLeaveOneOut:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(suites_with_duplicates(), suites_with_duplicates(integer=False)))
    def test_matches_per_benchmark_reference(self, s):
        assume(s.n_benchmarks >= 2)
        assert leave_one_out(s) == leave_one_out_reference(s)

    def test_single_benchmark_rejected(self, random_suite):
        with pytest.raises(ValueError, match="two benchmarks"):
            leave_one_out(random_suite.subset_benchmarks(["b0"]))

    def test_clone_benchmark_is_cheap(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(50)
        unique = rng.standard_normal(50)
        s = make_suite(
            np.column_stack([base, base, unique]), bench_ids=["c1", "c2", "solo"]
        )
        out = leave_one_out(s)
        assert abs(out["c1"].delta_ed) < abs(out["solo"].delta_ed)
        assert out["c1"].tau_vs_full > out["solo"].tau_vs_full

    def test_pair_suite(self):
        rng = np.random.default_rng(7)
        s = make_suite(rng.standard_normal((20, 2)))
        out = leave_one_out(s)
        full = suite_ed(s)
        for rec in out.values():
            assert math.isclose(full - rec.delta_ed, 1.0, rel_tol=1e-9)

    def test_clone_pair_suite_tau_one(self):
        # with exactly the clone pair, removing either leaves the same ranking
        rng = np.random.default_rng(8)
        base = rng.standard_normal(30)
        s = make_suite(np.column_stack([base, base]), bench_ids=["a", "b"])
        out = leave_one_out(s)
        assert out["a"].tau_vs_full == 1.0
        assert out["b"].tau_vs_full == 1.0


def subset_search_reference(s, size):
    """One reduced suite, ranking and tau per combination; first max and min."""
    full = composite_ranking(s, np.ones(s.n_benchmarks))
    best = worst = None
    for combo in itertools.combinations(s.benchmark_ids, size):
        tau = kendall_tau(full, composite_ranking(s.subset_benchmarks(combo), np.ones(size)))
        if best is None or tau > best[1]:
            best = (combo, tau)
        if worst is None or tau < worst[1]:
            worst = (combo, tau)
    return SubsetSearchResult(best[0], best[1], worst[0], worst[1])


class TestSubsetSearch:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_subset_reference(self, seed):
        # Integer cells make composite scores tie exactly, and benchmarks 4-7
        # copy 0-3, so many subsets tie on tau; 5000 models put 52 subsets in
        # a tau-b chunk, so the 56 triples span two chunks.
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, size=(5000, 4))
        s = make_suite(
            np.column_stack([base, base]),
            model_ids=[f"m{j:04d}" for j in rng.permutation(5000)],
        )
        for size in (1, 2, 3, 8):
            assert best_subset_search(s, size) == subset_search_reference(s, size)

    def test_full_size_tau_one(self, random_suite):
        res = best_subset_search(random_suite, random_suite.n_benchmarks)
        assert res.best_tau == 1.0
        assert res.worst_tau == 1.0

    def test_redundant_clone_dropped_first(self):
        # the cheapest column to drop is the one cloned by another
        rng = np.random.default_rng(9)
        shared = rng.standard_normal(60)
        clone = shared + 0.01 * rng.standard_normal(60)
        solo_a = rng.standard_normal(60)
        solo_b = rng.standard_normal(60)
        s = make_suite(
            np.column_stack([shared, clone, solo_a, solo_b]),
            bench_ids=["c1", "c2", "a", "b"],
        )
        res = best_subset_search(s, 3)
        assert set(res.best_ids) in ({"c1", "a", "b"}, {"c2", "a", "b"})
        assert res.best_tau >= res.worst_tau

    def test_budget_guard(self, random_suite):
        with pytest.raises(ValueError):
            best_subset_search(random_suite, 99)


class TestInformationDensity:
    def test_values(self):
        assert math.isclose(information_density(1.7, 6), 0.2833, abs_tol=1e-4)
        assert information_density(4, 4) == 1.0
        assert information_density(1, 4) == 0.25


class TestSuiteEd:
    def test_identical_benchmarks_one(self):
        rng = np.random.default_rng(10)
        col = rng.standard_normal(25)
        s = make_suite(np.column_stack([col, col, col]))
        assert math.isclose(suite_ed(s), 1.0, rel_tol=1e-9)

    def test_independent_benchmarks_high(self):
        rng = np.random.default_rng(11)
        s = make_suite(rng.standard_normal((500, 4)))
        assert suite_ed(s) > 3.0

    @pytest.mark.parametrize("level", [0.1, 0.3])
    def test_constant_benchmark_rejected(self, level):
        # the column mean of 3000 copies of 0.1 is not exactly 0.1
        rng = np.random.default_rng(12)
        table = rng.random((3000, 4))
        table[:, 2] = level
        s = make_suite(table, bench_ids=["a", "b", "c", "d"])
        with pytest.raises(ValueError, match="benchmark 'c' has zero variance"):
            suite_ed(s)

    def test_first_constant_benchmark_named(self):
        table = np.random.default_rng(13).random((50, 4))
        table[:, 3] = 0.7
        table[:, 1] = 0.1
        s = make_suite(table, bench_ids=["a", "b", "c", "d"])
        with pytest.raises(ValueError, match="benchmark 'b' has zero variance"):
            suite_ed(s)


class TestSubsets:
    def test_subsets_follow_requested_order(self, random_suite):
        sub = random_suite.subset_models(["m03", "m01"]).subset_benchmarks(["b4", "b0"])
        assert sub.model_ids == ("m03", "m01") and sub.benchmark_ids == ("b4", "b0")
        np.testing.assert_array_equal(sub.table, random_suite.table[np.ix_([3, 1], [4, 0])])

    def test_duplicate_id_named(self):
        """The score-matrix rule: the first repeated id is named."""
        table = np.random.default_rng(0).random((4, 3))
        with pytest.raises(MatrixValidationError, match="^duplicate model id: 'm0'$"):
            make_suite(table, model_ids=["m0", "m1", "m0", "m1"])
        with pytest.raises(MatrixValidationError, match="^duplicate benchmark id: 'b1'$"):
            make_suite(table, bench_ids=["b0", "b1", "b1"])

    def test_unknown_id_rejected(self, random_suite):
        with pytest.raises(ValueError, match="unknown model id: 'nope'"):
            random_suite.subset_models(["m01", "nope"])
        with pytest.raises(ValueError, match="unknown benchmark id: 'b9'"):
            random_suite.subset_benchmarks(["b9"])

    def test_benchmark_table_is_the_read_only_transpose(self, random_suite):
        rows = random_suite.benchmark_table()
        want = np.array(random_suite.table.T, copy=True)
        assert not rows.flags.writeable
        assert np.shares_memory(rows, random_suite.table)
        assert np.array_equal(rows, want) and rows.strides == want.strides

    def test_one_dimensional_table_names_the_shape_rule(self):
        rule = "^suite scores must be a 2-D models x benchmarks table$"
        with pytest.raises(ValueError, match=rule):
            SuiteScores(("a", "b"), ("x",), np.array([0.1, 0.2]))

    def test_subset_keeps_the_gathered_table(self):
        """A subset keeps the rows it gathered: no second copy in the
        constructor. The bound is in the result's table bytes."""
        rng = np.random.default_rng(3)
        s = make_suite(rng.random((3000, 12)), model_ids=[f"m{j:04d}" for j in range(3000)])
        ids = s.model_ids[::2]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sub = s.subset_models(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / sub.table.nbytes < 2.2

    def test_benchmark_subset_reuses_the_model_map(self):
        """A benchmark subset keeps the parent's models, so it reuses their
        id -> position map: the peak is about the gathered table alone."""
        rng = np.random.default_rng(3)
        s = make_suite(rng.random((3000, 12)), model_ids=[f"m{j:04d}" for j in range(3000)])
        ids = s.benchmark_ids[::2]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sub = s.subset_benchmarks(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / sub.table.nbytes < 1.5
        assert sub.model_positions(["m2999", "m0007"]) == [2999, 7]


class TestLoadSuite:
    def test_csv_layout(self, tmp_path):
        p = tmp_path / "suite.csv"
        p.write_text(
            "benchmark,m1,m2,m3\nifeval,0.5,0.7,0.2\nmath,0.1,0.9,0.4\n",
            encoding="utf-8",
        )
        s = load_suite(p)
        assert s.benchmark_ids == ("ifeval", "math")
        assert s.model_ids == ("m1", "m2", "m3")
        assert s.table.shape == (3, 2)

    def test_missing_cell_named(self, tmp_path):
        p = tmp_path / "suite.csv"
        p.write_text("benchmark,m1,m2\na,0.5,\nb,0.1,0.2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="m2"):
            load_suite(p)
