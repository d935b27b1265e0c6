import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectradiag import (
    IrtSpec,
    alternative_estimators,
    bootstrap_ed_ci,
    build_ed_report,
    ed_of_matrix,
    gen_iid_matrix,
    gen_irt_matrix,
    matched_dimension_ed,
    mp_null_ed,
    pc_metadata_auc,
    permutation_null,
    score_matrix,
    significant_pcs,
    split_half_reliability,
)
from spectradiag.nulls import _leading_run, _parallel_analysis_null, _variance_fractions
import spectradiag.association as association
from spectradiag.spectral import (
    CENTERING_SCHEMES,
    _column_resample_eds,
    center,
    pc1_fraction,
    principal_components,
    singular_spectrum,
)


def binary_from(arr):
    t, n = arr.shape
    return score_matrix([f"t{i}" for i in range(t)], [f"m{j}" for j in range(n)], arr)


def bootstrap_ed_ci_reference(m, iterations, seed, scheme, level=0.95):
    """Per-resample loop: copy the resampled columns, skip a resample with no
    spectrum (under "model" every column constant, under "none" every cell
    zero, otherwise every task row constant), and take ed_of_matrix of the
    rest."""
    values = m.dense_values()
    eds = []
    for i in range(iterations):
        rng = np.random.default_rng((seed, i))
        idx = rng.integers(0, m.n_models, size=m.n_models)
        sub = values[:, idx]
        if scheme == "model":
            dead = np.all(sub == sub[0])
        elif scheme == "none":
            dead = not sub.any()
        else:
            dead = np.all(sub == sub[:, :1])
        if dead:
            continue
        eds.append(ed_of_matrix(sub, scheme))
    if not eds:
        raise ValueError("every bootstrap resample was degenerate")
    alpha = (1.0 - level) / 2.0
    low, high = np.percentile(eds, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


def bootstrap_ed_ci_list_reference(m, iterations, seed, scheme):
    """One list of resamples drawn in place, scored by ``_column_resample_eds``;
    NaN (degenerate) dropped before the percentiles."""
    resamples = [
        np.random.default_rng((seed, i)).integers(0, m.n_models, size=m.n_models)
        for i in range(iterations)
    ]
    eds = _column_resample_eds(m.dense_values(), resamples, scheme)
    eds = eds[~np.isnan(eds)]
    if not eds.size:
        raise ValueError("every bootstrap resample was degenerate")
    alpha = (1.0 - 0.95) / 2.0
    low, high = np.percentile(eds, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


class TestMpNull:
    def test_known_dimension_pairs(self):
        assert abs(mp_null_ed(500, 134) - 105.7) < 0.1
        assert abs(mp_null_ed(1140, 153) - 134.9) < 0.1

    def test_square_is_half(self):
        assert mp_null_ed(10, 10) == 5.0

    def test_symmetric_and_below_min(self):
        for t, n in [(3, 7), (50, 4), (200, 200)]:
            assert mp_null_ed(t, n) == mp_null_ed(n, t)
            assert mp_null_ed(t, n) < min(t, n)

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            mp_null_ed(0, 5)

    def test_iid_gaussian_matches_formula(self):
        for t, n in [(200, 50), (500, 134)]:
            x = gen_iid_matrix(t, n, "gaussian", seed=3)
            ed = ed_of_matrix(x)
            assert abs(ed - mp_null_ed(t, n)) / mp_null_ed(t, n) < 0.10


def permutation_null_rows_reference(m, replicates, seed):
    """Row-axis band from its own loop: center once, then shuffle every row
    of the centered grid under the (seed, r) stream into a reused buffer."""
    values = center(m.dense_values())
    shuffled = np.empty_like(values)
    fractions = np.empty((replicates, min(values.shape)))
    for r in range(replicates):
        np.random.default_rng((seed, r)).permuted(values, axis=1, out=shuffled)
        fractions[r] = _variance_fractions(shuffled)
    return np.percentile(fractions, 95.0, axis=0)


@st.composite
def null_grids(draw):
    """Binary or continuous grids, tall or wide, some rows or columns all equal."""
    t, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random((t, n))
    if draw(st.booleans()):
        values = (values < 0.5).astype(float)
    for i in draw(st.lists(st.integers(0, t - 1), max_size=t)):
        values[i] = draw(st.sampled_from([0.0, 0.1, 1.0]))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        values[:, j] = draw(st.sampled_from([0.0, 0.1, 1.0]))
    return binary_from(values)


class TestPermutationNull:
    @settings(max_examples=60, deadline=None)
    @given(null_grids(), st.integers(0, 2**16), st.integers(2, 6))
    def test_row_axis_equals_loop_reference(self, m, seed, replicates):
        got = permutation_null(m, replicates=replicates, seed=seed).band
        want = permutation_null_rows_reference(m, replicates, seed)
        assert got.tobytes() == want.tobytes()

    def test_column_axis_all_equal_grid_is_zero(self):
        m = binary_from(np.full((50, 20), 0.1))
        band = permutation_null(m, replicates=5, seed=1, axis="columns").band
        np.testing.assert_array_equal(band, np.zeros(20))

    @settings(max_examples=60, deadline=None)
    @given(null_grids(), st.integers(0, 2**16), st.integers(2, 6))
    def test_column_axis_equals_axis0_loop_with_constant_rows_zeroed(self, m, seed, replicates):
        values = m.dense_values()
        fractions = []
        for r in range(replicates):
            shuffled = np.random.default_rng((seed, r)).permuted(values, axis=0)
            xc = shuffled - shuffled.mean(axis=1, keepdims=True)
            xc[shuffled.max(axis=1) == shuffled.min(axis=1)] = 0.0
            fractions.append(_variance_fractions(xc))
        want = np.percentile(fractions, 95.0, axis=0)
        got = permutation_null(m, replicates=replicates, seed=seed, axis="columns").band
        assert got.tobytes() == want.tobytes()

    def test_replicate_floor(self, noise_matrix):
        with pytest.raises(ValueError):
            permutation_null(noise_matrix, replicates=1)

    def test_band_nonincreasing(self, noise_matrix):
        band = permutation_null(noise_matrix, replicates=20, seed=1)
        assert np.all(np.diff(band.band) <= 1e-12)

    def test_noise_stays_inside_band(self, noise_matrix):
        band = permutation_null(noise_matrix, replicates=50, seed=1)
        assert significant_pcs(noise_matrix, band) <= 1

    def test_planted_factor_detected(self):
        rng = np.random.default_rng(2)
        ability = rng.standard_normal(50)
        probs = 1 / (1 + np.exp(-(2.0 * ability[None, :] - rng.normal(0, 1, (150, 1)))))
        m = binary_from((rng.random((150, 50)) < probs).astype(float))
        band = permutation_null(m, replicates=50, seed=4)
        assert significant_pcs(m, band) >= 1

    def test_irt_k5_finds_structure(self, irt_k5):
        band = permutation_null(irt_k5, replicates=50, seed=7)
        assert 3 <= significant_pcs(irt_k5, band) <= 7

    def test_column_axis_variant(self, noise_matrix):
        band = permutation_null(noise_matrix, replicates=20, seed=1, axis="columns")
        assert band.band.shape == (min(noise_matrix.shape),)

    def test_seed_reproducible(self, noise_matrix):
        b1 = permutation_null(noise_matrix, replicates=10, seed=9)
        b2 = permutation_null(noise_matrix, replicates=10, seed=9)
        np.testing.assert_array_equal(b1.band, b2.band)


class TestBootstrapCi:
    def test_needs_five_models(self):
        m = score_matrix(["t1", "t2"], ["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            bootstrap_ed_ci(m)

    def test_complementary_columns_width_zero(self):
        # Two complementary column patterns: any mixed resample is rank one.
        col = np.array([1.0, 0, 1, 0, 1, 1, 0])
        vals = np.column_stack([col, col, 1 - col, 1 - col, col])
        m = binary_from(vals)
        low, high = bootstrap_ed_ci(m, iterations=200, seed=0)
        assert math.isclose(low, 1.0, rel_tol=1e-9)
        assert math.isclose(high, 1.0, rel_tol=1e-9)

    @pytest.mark.parametrize("scheme", ["task", "model", "double", "none"])
    def test_matches_per_resample_reference(self, irt_k5, scheme):
        rng = np.random.default_rng(8)
        col = np.array([1.0, 0, 1, 0, 1, 1, 0])
        # One column differs from four equal ones (one of them with -0.0
        # cells): about a third of the resamples hold only the equal ones,
        # degenerate and skipped under "task" and "double"; under "model"
        # and "none" they are rank one and scored with ED 1.
        one_off = np.column_stack([col, col, np.where(col == 0, -0.0, col), col, 1 - col])
        grids = {
            "tall": irt_k5.subset_models(irt_k5.model_ids[:25]),
            "wide": irt_k5.subset_tasks(irt_k5.task_ids[:12]).subset_models(
                irt_k5.model_ids[:30]
            ),
            "continuous": binary_from(rng.random((40, 9))),
            "complementary": binary_from(np.column_stack([col, col, 1 - col, 1 - col, col])),
            "one_off": binary_from(one_off),
        }
        for name, m in grids.items():
            got = bootstrap_ed_ci(m, iterations=150, seed=3, scheme=scheme)
            want = bootstrap_ed_ci_reference(m, iterations=150, seed=3, scheme=scheme)
            assert got == pytest.approx(want, rel=1e-9), name

    @pytest.mark.parametrize("scheme", CENTERING_SCHEMES)
    def test_equals_list_loop_bitwise(self, monkeypatch, scheme):
        rng = np.random.default_rng(4)
        col = np.array([1.0, 0, 1, 0, 1, 1, 0])
        grids = [
            gen_irt_matrix(IrtSpec(k=3, tasks=300, models=40, seed=2)),
            binary_from(rng.random((30, 12))),
            binary_from(np.column_stack([col, col, col, col, 1 - col])),
        ]
        # a budget of 3 resamples a block, so a draw spans several blocks
        monkeypatch.setattr(association, "_CELL_BUDGET", 3 * 40)
        for m in grids:
            want = bootstrap_ed_ci_list_reference(m, iterations=120, seed=6, scheme=scheme)
            assert bootstrap_ed_ci(m, iterations=120, seed=6, scheme=scheme) == want

    @pytest.mark.parametrize("scheme", ["model", "double"])
    def test_constant_and_shifted_columns_skipped(self, scheme):
        # Constant columns center to zero under "model"; under "double" so
        # does any resample whose columns differ only by constants. Every
        # other resample holds the one live column: rank one, ED exactly 1.
        col = np.array([1.0, 0, 1, 0, 1, 1, 0])
        zeros, ones = np.zeros(7), np.ones(7)
        m = binary_from(np.column_stack([zeros, ones, zeros, ones, col]))
        low, high = bootstrap_ed_ci(m, iterations=200, seed=0, scheme=scheme)
        assert low == pytest.approx(1.0, rel=1e-12)
        assert high == pytest.approx(1.0, rel=1e-12)

    def test_all_equal_columns_degenerate(self):
        col = np.array([1.0, 0, 1, 0, 1, 1, 0])
        m = binary_from(np.column_stack([col] * 6))
        with pytest.raises(ValueError, match="every bootstrap resample was degenerate"):
            bootstrap_ed_ci(m, iterations=20)

    def test_seed_reproducible_and_brackets(self, irt_k5):
        sub = irt_k5.subset_models(irt_k5.model_ids[:30])
        a = bootstrap_ed_ci(sub, iterations=100, seed=5)
        b = bootstrap_ed_ci(sub, iterations=100, seed=5)
        assert a == b
        width = a[1] - a[0]
        assert 0 < width < 5.0


class TestMatchedDimension:
    def test_full_size_is_exact(self, noise_matrix):
        mean, sd = matched_dimension_ed(
            noise_matrix, noise_matrix.n_tasks, noise_matrix.n_models, trials=5
        )
        assert sd == 0.0
        assert math.isclose(mean, ed_of_matrix(noise_matrix.dense_values()))

    def test_ordering_by_latent_dimension(self):
        m10 = gen_irt_matrix(IrtSpec(k=10, tasks=200, models=60, discrimination_scale=2.0, seed=1))
        m1 = gen_irt_matrix(IrtSpec(k=1, tasks=200, models=60, discrimination_scale=2.0, seed=1))
        hi, _ = matched_dimension_ed(m10, 100, 30, trials=10, seed=2)
        lo, _ = matched_dimension_ed(m1, 100, 30, trials=10, seed=2)
        assert hi > lo

    def test_oversized_request_rejected(self, noise_matrix):
        with pytest.raises(ValueError):
            matched_dimension_ed(noise_matrix, noise_matrix.n_tasks + 1, 5)

    def test_seed_reproducible(self, noise_matrix):
        a = matched_dimension_ed(noise_matrix, 60, 20, trials=5, seed=3)
        assert a == matched_dimension_ed(noise_matrix, 60, 20, trials=5, seed=3)

    def test_equal_continuous_columns_rejected(self):
        col = np.random.default_rng(3).random(20)
        m = binary_from(np.column_stack([col] * 3))
        with pytest.raises(ValueError, match="all-zero spectrum"):
            matched_dimension_ed(m, 20, 3)


def split_half_reference(m, k, splits=50, seed=0):
    """Split-half reliability with one loading correlation per (i, j) pair."""
    values = m.dense_values()
    half = m.n_models // 2
    k = min(k, half, m.n_tasks)
    sums = np.zeros(k)
    for s in range(splits):
        perm = np.random.default_rng((seed, s)).permutation(m.n_models)
        load_a = principal_components(center(values[:, perm[:half]]), k).components
        load_b = principal_components(center(values[:, perm[half:]]), k).components
        corr = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                ai, bj = load_a[:, i], load_b[:, j]
                denom = np.linalg.norm(ai - ai.mean()) * np.linalg.norm(bj - bj.mean())
                if denom > 0.0:
                    corr[i, j] = abs(np.dot(ai - ai.mean(), bj - bj.mean()) / denom)
        matched = np.zeros(k)
        free_a, free_b = set(range(k)), set(range(k))
        for _ in range(k):
            best = max(
                ((corr[i, j], i, j) for i in free_a for j in free_b),
                key=lambda t: (t[0], -t[1], -t[2]),
            )
            matched[best[1]] = best[0]
            free_a.discard(best[1])
            free_b.discard(best[2])
        sums += matched
    return sums / splits


class TestSplitHalf:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_pairwise_loop(self, seed):
        m = gen_irt_matrix(IrtSpec(k=3, tasks=60, models=24, seed=seed))
        got = split_half_reliability(m, k=4, splits=8, seed=seed)
        want = split_half_reference(m, k=4, splits=8, seed=seed)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_zero_norm_loading_scores_zero(self, monkeypatch):
        import spectradiag.nulls as nulls

        real = nulls.principal_components

        def flat_second(x, k):
            pcs = real(x, k)
            pcs.components[:, 1] = 0.5
            return pcs

        monkeypatch.setattr(nulls, "principal_components", flat_second)
        m = gen_irt_matrix(IrtSpec(k=2, tasks=30, models=20, seed=4))
        rel = split_half_reliability(m, k=3, splits=4, seed=0)
        assert rel[1] == 0.0

    def test_needs_ten_models(self, tiny_binary):
        with pytest.raises(ValueError):
            split_half_reliability(tiny_binary, k=1)

    def test_rank_one_noiseless_pc1_perfect(self):
        ability = np.linspace(0, 1, 20)
        vals = np.outer(np.linspace(0.2, 0.8, 15), ability)
        vals = vals / vals.max()
        m = score_matrix(
            [f"t{i}" for i in range(15)], [f"m{j}" for j in range(20)], vals
        )
        rel = split_half_reliability(m, k=2, splits=10, seed=0)
        assert rel[0] > 0.999

    def test_noise_unreliable(self, noise_matrix):
        rel = split_half_reliability(noise_matrix, k=3, splits=10, seed=0)
        assert np.all(rel < 0.6)

    def test_strong_factors_beat_later_pcs(self, irt_k2_positive):
        rel = split_half_reliability(irt_k2_positive, k=4, splits=12, seed=0)
        assert rel[0] > rel[2]
        assert rel[1] > rel[3]


class TestAuc:
    def test_perfect_separation(self):
        assert pc_metadata_auc([0.1, 0.2, 0.9, 1.0], [0, 0, 1, 1]) == 1.0

    def test_orientation_free(self):
        assert pc_metadata_auc([0.9, 1.0, 0.1, 0.2], [0, 0, 1, 1]) == 1.0

    def test_ties_half_credit(self):
        auc = pc_metadata_auc([0.5, 0.5], [0, 1])
        assert auc == 0.5

    def test_independent_near_half(self):
        rng = np.random.default_rng(0)
        aucs = []
        for _ in range(30):
            scores = rng.standard_normal(200)
            labels = rng.random(200) < 0.5
            aucs.append(pc_metadata_auc(scores, labels))
        assert np.mean(aucs) < 0.56

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            pc_metadata_auc([0.1, 0.2], [1, 1])

    def test_secondary_component_separates_planted_group(self):
        # a specialist-model flag shifts half the tasks: PC1 stays general
        # ability, PC2 carries the group contrast and classifies it cleanly
        from spectradiag import center, principal_components

        rng = np.random.default_rng(3)
        n, t = 60, 200
        group = rng.random(n) < 0.4
        ability = rng.standard_normal(n)
        specialist = rng.random(t) < 0.5
        difficulty = rng.normal(0, 1, t)
        logits = (
            ability[None, :]
            - difficulty[:, None]
            + 1.5 * np.where(specialist[:, None], 1.0, -1.0) * group[None, :]
        )
        vals = (rng.random((t, n)) < 1 / (1 + np.exp(-logits))).astype(float)
        m = score_matrix([f"t{i}" for i in range(t)], [f"m{j}" for j in range(n)], vals)
        pc = principal_components(center(m.dense_values()), 2)
        assert pc_metadata_auc(pc.scores[1], group) > 0.9


class TestAlternativeEstimators:
    def test_constant_model_column_rejected(self):
        rng = np.random.default_rng(4)
        vals = rng.random((50, 6))
        vals[:, 2] = 0.1
        with pytest.raises(ValueError, match="constant model column"):
            alternative_estimators(binary_from(vals), seed=0)

    def test_rank_one_data(self):
        ability = np.linspace(0.1, 0.9, 25)
        vals = np.clip(np.outer(np.linspace(0.5, 1.5, 40), ability), 0, 1)
        m = score_matrix(
            [f"t{i}" for i in range(40)], [f"m{j}" for j in range(25)], vals
        )
        est = alternative_estimators(m, seed=0)
        assert est["var80"] == 1
        assert all(v >= 1 for v in est.values())

    def test_identity_like_noise(self):
        rng = np.random.default_rng(1)
        m = score_matrix(
            [f"t{i}" for i in range(200)],
            [f"m{j}" for j in range(12)],
            rng.random((200, 12)),
        )
        est = alternative_estimators(m, seed=0)
        assert est["broken_stick"] <= 1
        assert est["parallel_analysis"] <= 2

    def test_ordering_in_latent_dimension(self):
        counts = {}
        for k in (1, 5, 10):
            m = gen_irt_matrix(
                IrtSpec(k=k, tasks=400, models=50, discrimination_scale=3.0, seed=3)
            )
            counts[k] = alternative_estimators(m, seed=1)
        for key in ("parallel_analysis", "kaiser", "broken_stick", "var80", "var90"):
            vals = [counts[k][key] for k in (1, 5, 10)]
            assert vals == sorted(vals), f"{key} not nondecreasing: {vals}"

    @pytest.mark.parametrize("shape", [(300, 20), (15, 40)])
    def test_null_eigenvalues_match_corrcoef_of_shuffled_grid(self, shape):
        values = np.random.default_rng(2).random(shape)
        got = _parallel_analysis_null(values, seed=4, replicates=5)
        assert got.shape == (5, shape[1])
        for r in range(5):
            shuffled = np.random.default_rng((4, r)).permuted(values, axis=0)
            corr = np.corrcoef(shuffled, rowvar=False)
            want = np.sort(np.linalg.eigvalsh(corr))[::-1]
            np.testing.assert_allclose(got[r], want, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(300, 20), (15, 40)])
    def test_null_eigenvalues_equal_column_shuffle_form(self, shape):
        # the grid is shuffled as N x T rows; the draws and eigenvalues must
        # equal shuffling the T x N grid along axis 0, bit for bit
        values = np.random.default_rng(3).random(shape)
        z = (values - values.mean(axis=0)) / values.std(axis=0)
        got = _parallel_analysis_null(values, seed=6, replicates=4)
        for r in range(4):
            shuffled = np.random.default_rng((6, r)).permuted(z, axis=0)
            want = np.linalg.eigvalsh(shuffled.T @ shuffled / shape[0])[::-1]
            np.testing.assert_array_equal(got[r], want)

    def test_degenerate_column_rejected(self):
        m = score_matrix(["t1", "t2", "t3"], ["a", "b"], [[1, 1], [0, 1], [1, 1]])
        with pytest.raises(ValueError, match="degenerate"):
            alternative_estimators(m)


def leading_run_reference(observed, threshold):
    count = 0
    for obs, bound in zip(observed, threshold):
        if obs > bound:
            count += 1
        else:
            break
    return count


class TestLeadingRun:
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=8),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=8),
    )
    def test_matches_loop_reference(self, observed, threshold):
        got = _leading_run(np.array(observed), np.array(threshold))
        assert got == leading_run_reference(observed, threshold)


class TestEdReport:
    def test_fields_consistent(self, irt_k5):
        sub = irt_k5.subset_models(irt_k5.model_ids[:40])
        rep = build_ed_report(sub, seed=1, bootstrap_iterations=50)
        assert rep.ratio == rep.ed / rep.ed_null
        assert rep.ci_low <= rep.ed <= rep.ci_high
        assert rep.n_tasks == sub.n_tasks

    @pytest.mark.parametrize("scheme", CENTERING_SCHEMES)
    @pytest.mark.parametrize("binary", [True, False])
    def test_ed_is_the_kernel_value(self, irt_k5, scheme, binary):
        m = irt_k5.subset_models(irt_k5.model_ids[:30])
        if not binary:
            rng = np.random.default_rng(5)
            m = binary_from((m.dense_values() + rng.random((m.n_tasks, m.n_models))) / 2.0)
        rep = build_ed_report(m, seed=0, bootstrap_iterations=0, scheme=scheme)
        assert rep.ed == ed_of_matrix(m.dense_values(), scheme)
        want = pc1_fraction(singular_spectrum(center(m.dense_values(), scheme)))
        assert math.isclose(rep.pc1_pct, want, rel_tol=1e-12)

    def test_small_population_degenerate_ci(self, tiny_binary):
        rep = build_ed_report(tiny_binary, seed=0)
        assert rep.ci_low == rep.ed == rep.ci_high

    def test_negative_bootstrap_iterations_rejected(self, tiny_binary):
        with pytest.raises(ValueError, match="bootstrap iterations must be at least 0, got -5"):
            build_ed_report(tiny_binary, seed=0, bootstrap_iterations=-5)
