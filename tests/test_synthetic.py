import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectradiag import (
    IrtSpec,
    ed_of_matrix,
    gen_iid_matrix,
    gen_irt_matrix,
    mp_null_ed,
    rank_recovery_report,
    tetrachoric_ed,
)
from spectradiag.association import _KENDALL_CHUNK_CELLS
from spectradiag.synthetic import _logistic


def whole_grid_reference(spec):
    """The 2PL grid from whole-grid probabilities and one whole-grid draw of
    uniforms: the generator's stream and order, with no row blocks."""
    rng = np.random.default_rng(spec.seed)
    theta = rng.standard_normal((spec.models, spec.k))
    raw = rng.standard_normal((spec.tasks, spec.k))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    loadings = raw / norms
    if spec.loading_orientation == "positive":
        loadings = np.abs(loadings)
    loadings = loadings * spec.discrimination_scale
    difficulty = rng.normal(0.0, spec.difficulty_spread, size=spec.tasks)
    probs = _logistic(loadings @ theta.T - difficulty[:, None])
    return (rng.random((spec.tasks, spec.models)) < probs).astype(float)


@st.composite
def irt_specs(draw):
    tasks = draw(st.integers(1, 700))
    models = draw(st.integers(2, 400))
    return IrtSpec(
        k=draw(st.integers(1, min(20, tasks, models))),
        tasks=tasks,
        models=models,
        discrimination_scale=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0])),
        difficulty_spread=draw(st.sampled_from([0.0, 1.0, 3.0])),
        loading_orientation=draw(st.sampled_from(["sphere", "positive"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestIrtSpec:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            IrtSpec(k=0, tasks=10, models=10)
        with pytest.raises(ValueError):
            IrtSpec(k=30, tasks=10, models=10)

    def test_orientation_validated(self):
        with pytest.raises(ValueError):
            IrtSpec(k=2, tasks=10, models=10, loading_orientation="spiral")


class TestGenIrt:
    def test_seed_bit_identical(self):
        spec = IrtSpec(k=3, tasks=50, models=20, seed=42)
        a = gen_irt_matrix(spec)
        b = gen_irt_matrix(spec)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.kind == "binary"

    def test_step_function_limit_low_ed(self):
        m = gen_irt_matrix(
            IrtSpec(k=1, tasks=200, models=60, discrimination_scale=50.0,
                    loading_orientation="positive", seed=0)
        )
        assert ed_of_matrix(m.dense_values()) < 15.0

    def test_zero_signal_matches_null(self):
        m = gen_irt_matrix(
            IrtSpec(k=1, tasks=300, models=80, discrimination_scale=0.0,
                    difficulty_spread=0.0, seed=1)
        )
        ed = ed_of_matrix(m.dense_values())
        null = mp_null_ed(300, 80)
        assert abs(ed - null) / null < 0.10

    def test_matrix_contract(self):
        m = gen_irt_matrix(IrtSpec(k=2, tasks=30, models=10, seed=2))
        assert m.is_complete
        assert m.shape == (30, 10)
        assert len(set(m.task_ids)) == 30

    def test_orientations_differ(self):
        sphere = gen_irt_matrix(IrtSpec(k=4, tasks=100, models=40, seed=3))
        positive = gen_irt_matrix(
            IrtSpec(k=4, tasks=100, models=40, loading_orientation="positive", seed=3)
        )
        assert not np.array_equal(sphere.values, positive.values)


def two_branch_logistic(x):
    """The logistic as two masked branches: 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestLogistic:
    def test_equals_two_branch_reference(self):
        """Bit for bit, at signed zeros, where exp(-|x|) underflows (|x| >=
        745) and on a spread of ordinary values."""
        edges = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e4, -1e4, 1e-300, -1e-300]
        x = np.concatenate([edges, np.random.default_rng(8).standard_normal(20000) * 40.0])
        assert _logistic(x).tobytes() == two_branch_logistic(x).tobytes()
        assert _logistic(np.array([-0.0, 745.0, -745.0])).tolist() == [0.5, 1.0, 5e-324]


class TestGenIrtBlocks:
    @settings(max_examples=60, deadline=None)
    @given(irt_specs())
    # 163-row blocks at 400 models: four full blocks and a remainder of 48
    @example(IrtSpec(k=20, tasks=700, models=400, seed=5))
    @example(IrtSpec(k=1, tasks=1, models=400, loading_orientation="positive", seed=6))
    def test_matches_whole_grid_reference(self, spec):
        m = gen_irt_matrix(spec)
        want = whole_grid_reference(spec)
        assert m.values.tobytes() == want.tobytes()
        assert not m.missing.any()
        assert m.kind == "binary"
        assert m.task_ids[-1] == f"task_{spec.tasks - 1:0{max(4, len(str(spec.tasks)))}d}"

    @pytest.mark.parametrize(
        "spec,digest",
        [
            (
                IrtSpec(k=2, tasks=40, models=12, seed=7),
                "e56f4bd21f0a1c3f7928bfedc450c28632b45e392aa1b25ff4d12c38fbd8fe80",
            ),
            (
                IrtSpec(
                    k=3, tasks=600, models=3000, discrimination_scale=1.5,
                    loading_orientation="positive", seed=1,
                ),
                "f56d97dade5652f53afca886c75218e1846cfd2af4707de9bdde0fc90b9838df",
            ),
            (
                # |a.theta - b| often exceeds 745, where exp(-|x|) underflows
                IrtSpec(k=4, tasks=300, models=500, discrimination_scale=400.0,
                        difficulty_spread=3.0, seed=9),
                "ca717ff1873b12869f32b61e45017196be03983cadb2f923ed4aa5c41e4b0013",
            ),
        ],
        ids=["small", "suite-sized", "saturated"],
    )
    def test_grid_digest_is_pinned(self, spec, digest):
        """The grids' sha256 as the two-branch logistic produced them."""
        assert hashlib.sha256(gen_irt_matrix(spec).values.tobytes()).hexdigest() == digest

    def test_spec_spans_several_blocks(self):
        rows = _KENDALL_CHUNK_CELLS // 4 // 400
        assert 700 > 4 * rows and 700 % rows

    def test_peak_below_1_5_grids(self):
        """One grid, its mask and one row block: the whole-grid form held
        the probabilities, the uniforms and the comparison at once."""
        spec = IrtSpec(k=3, tasks=600, models=3000, loading_orientation="positive", seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gen_irt_matrix(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.5 * 8 * 600 * 3000


class TestGenIid:
    def test_gaussian_null_calibration(self):
        x = gen_iid_matrix(500, 134, "gaussian", seed=4)
        ed = ed_of_matrix(x)
        assert abs(ed - 105.7) / 105.7 < 0.10

    def test_bernoulli_degenerate(self):
        x = gen_iid_matrix(10, 5, "bernoulli", p=1.0, seed=0)
        assert np.all(x == 1.0)

    def test_seed_reproducible(self):
        np.testing.assert_array_equal(
            gen_iid_matrix(20, 10, seed=7), gen_iid_matrix(20, 10, seed=7)
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_iid_matrix(5, 5, "poisson")


class TestRankRecovery:
    def test_small_harness_orders_by_k(self):
        rep = rank_recovery_report(
            ks=(1, 4, 10), seeds=3, tasks=200, models=60, discrimination_scale=2.0
        )
        assert rep.spearman_rho >= 0.9
        eds = [rep.per_k_mean_ed[k] for k in (1, 4, 10)]
        assert eds == sorted(eds)
        assert all(r >= 1.0 for r in rep.overestimate_ratio.values())

    def test_tetrachoric_tightens_irt(self, irt_k5):
        sub = irt_k5.subset_models(irt_k5.model_ids[:30])
        ed_t = tetrachoric_ed(sub)
        from spectradiag import ed_of_correlation

        pearson = np.corrcoef(sub.dense_values(), rowvar=False)
        assert ed_t < ed_of_correlation(pearson)
