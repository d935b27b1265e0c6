import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectradiag import (
    Spectrum,
    center,
    ed_of_correlation,
    ed_of_matrix,
    effective_dimensionality,
    pc1_fraction,
    principal_components,
    renyi2_ed,
    shannon_effective_rank,
    singular_spectrum,
)
import spectradiag.spectral as spectral
from spectradiag.spectral import CENTERING_SCHEMES, _column_resample_eds

spectra = st.lists(
    st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40
).map(lambda xs: Spectrum(np.sort(np.asarray(xs))[::-1]))


class TestCenter:
    def test_task_center_subtracts_row_mean(self):
        out = center(np.array([[1.0, 0.0, 1.0]]))
        np.testing.assert_allclose(out[0], [1 / 3, -2 / 3, 1 / 3])

    def test_none_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(center(x, "none"), x)

    def test_constant_matrix_vanishes(self):
        out = center(np.full((3, 4), 0.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_row_means_zero(self):
        rng = np.random.default_rng(0)
        out = center(rng.random((5, 7)))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)

    def test_model_and_double(self):
        rng = np.random.default_rng(1)
        x = rng.random((4, 6))
        np.testing.assert_allclose(center(x, "model").mean(axis=0), 0.0, atol=1e-12)
        d = center(x, "double")
        np.testing.assert_allclose(d.mean(axis=0), 0.0, atol=1e-12)

    def test_missing_rejected(self, tiny_binary):
        x = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="complete"):
            center(x)

    @pytest.mark.parametrize("scheme", CENTERING_SCHEMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_under_every_scheme(self, scheme, bad):
        x = np.arange(12.0).reshape(3, 4)
        x[1, 2] = bad
        with pytest.raises(ValueError, match="complete"):
            center(x, scheme)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from(["task", "model", "double"]),
        st.data(),
    )
    def test_constant_lines_center_to_exact_zero(self, seed, t, n, scheme, data):
        """Rows (columns under ``model``) overwritten by a constant become
        exactly 0.0; every other cell is bitwise the plain subtraction, with
        the column step of ``double`` applied after the row step."""
        rng = np.random.default_rng(seed)
        x = rng.random((t, n))
        axis = 0 if scheme == "model" else 1
        lines = np.flatnonzero(rng.random(x.shape[1 - axis]) < 0.5)
        constants = st.one_of(
            st.sampled_from([0.1, 0.7, 1 / 3]), st.floats(-1e6, 1e6, allow_nan=False)
        )
        lined = x if axis == 1 else x.T
        for i in lines:
            lined[i] = data.draw(constants)
        expect = x - x.mean(axis=axis, keepdims=True)
        (expect if axis == 1 else expect.T)[lines] = 0.0
        out = center(x, scheme)
        if scheme == "double":
            rowed = center(x, "task")
            assert not rowed[lines].any()
            expect -= expect.mean(axis=0, keepdims=True)
        else:
            assert not (out if axis == 1 else out.T)[lines].any()
        assert out.tobytes() == expect.tobytes()


class TestSpectrum:
    def test_diagonal(self):
        s = singular_spectrum(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s.sigmas, [3.0, 1.0])

    def test_zero_matrix(self):
        s = singular_spectrum(np.zeros((3, 2)))
        np.testing.assert_array_equal(s.sigmas, [0.0, 0.0])

    def test_frobenius_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        s = singular_spectrum(x)
        assert math.isclose(
            float((s.sigmas**2).sum()), float((x**2).sum()), rel_tol=1e-8
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            singular_spectrum(np.array([[1.0, np.inf]]))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([-1.0]))


class TestEd:
    def test_uniform_spectrum_counts_components(self):
        assert effective_dimensionality(Spectrum(np.ones(3))) == 3.0

    def test_rank_one(self):
        assert effective_dimensionality(Spectrum(np.array([5.0, 0.0, 0.0]))) == 1.0

    def test_hand_value_two_one(self):
        ed = effective_dimensionality(Spectrum(np.array([2.0, 1.0])))
        assert math.isclose(ed, 25 / 17, rel_tol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            effective_dimensionality(Spectrum(np.zeros(3)))

    @settings(max_examples=100, deadline=None)
    @given(spectra)
    def test_renyi_identity_and_bounds(self, s):
        ed = effective_dimensionality(s)
        assert abs(ed - renyi2_ed(s)) < 1e-9
        nonzero = int((s.sigmas > 1e-10 * s.sigmas[0]).sum())
        assert 1.0 - 1e-12 <= ed <= nonzero + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(spectra)
    def test_shannon_at_least_ed(self, s):
        assert shannon_effective_rank(s) >= effective_dimensionality(s) - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(spectra, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, s, c):
        scaled = Spectrum(s.sigmas * c)
        assert math.isclose(
            effective_dimensionality(s),
            effective_dimensionality(scaled),
            rel_tol=1e-9,
        )


class TestShannon:
    def test_uniform(self):
        assert math.isclose(
            shannon_effective_rank(Spectrum(np.ones(3))), 3.0, rel_tol=1e-12
        )

    def test_degenerate(self):
        assert shannon_effective_rank(Spectrum(np.array([5.0, 0.0]))) == 1.0

    def test_hand_value(self):
        got = shannon_effective_rank(Spectrum(np.array([2.0, 1.0])))
        want = math.exp(-(0.8 * math.log(0.8) + 0.2 * math.log(0.2)))
        assert math.isclose(got, want, rel_tol=1e-12)


class TestPc1:
    def test_values(self):
        assert pc1_fraction(Spectrum(np.ones(4))) == 0.25
        assert pc1_fraction(Spectrum(np.array([3.0, 0.0]))) == 1.0
        assert math.isclose(pc1_fraction(Spectrum(np.array([2.0, 1.0]))), 0.8)


class TestPrincipalComponents:
    def test_full_reconstruction_residual_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        pc = principal_components(x, 4)
        recon = pc.components @ pc.scores
        assert np.linalg.norm(x - recon) < 1e-8

    def test_rank_one_variance(self):
        x = np.outer([1.0, 2.0, 3.0], [1.0, -1.0])
        pc = principal_components(x, 1)
        np.testing.assert_allclose(pc.variance_fraction, [1.0])

    def test_diag_style_fractions(self):
        pc = principal_components(np.diag([3.0, 1.0]), 2)
        np.testing.assert_allclose(pc.variance_fraction, [0.9, 0.1])

    def test_residual_matches_tail(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 5))
        s = singular_spectrum(x)
        for k in (1, 3):
            pc = principal_components(x, k)
            resid = x - pc.components @ pc.scores
            tail = float((s.sigmas[k:] ** 2).sum())
            assert math.isclose(float((resid**2).sum()), tail, rel_tol=1e-6)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 5))
        pc = principal_components(x, 3)
        for i in range(3):
            j = np.argmax(np.abs(pc.components[:, i]))
            assert pc.components[j, i] > 0

    def test_orthonormal_loadings(self):
        rng = np.random.default_rng(6)
        pc = principal_components(rng.standard_normal((9, 6)), 4)
        gram = pc.components.T @ pc.components
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            principal_components(np.eye(3), 4)

    def test_pc1_matches_fraction(self):
        rng = np.random.default_rng(7)
        x = center(rng.random((10, 6)))
        pc = principal_components(x, 1)
        assert math.isclose(
            pc.variance_fraction[0],
            pc1_fraction(singular_spectrum(x)),
            rel_tol=1e-12,
        )


class TestEdOfCorrelation:
    def test_identity(self):
        assert ed_of_correlation(np.eye(4)) == 4.0

    def test_all_ones(self):
        assert math.isclose(ed_of_correlation(np.ones((4, 4))), 1.0)

    def test_two_by_two_hand_value(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert math.isclose(ed_of_correlation(c), 1.6, rel_tol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            ed_of_correlation(np.array([[1.0, 0.3], [0.6, 1.0]]))

    def test_bounds(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 5))
        c = np.corrcoef(x, rowvar=False)
        ed = ed_of_correlation(c)
        assert 1.0 <= ed <= 5.0


class TestEdOfMatrix:
    def test_centered_bound(self):
        rng = np.random.default_rng(9)
        x = rng.random((12, 7))
        assert ed_of_matrix(x) <= 7.0

    def test_identical_rows_give_one(self):
        x = np.tile([0.0, 1.0, 0.5, 0.2], (6, 1))
        assert math.isclose(ed_of_matrix(x), 1.0, rel_tol=1e-12)

    def test_equal_continuous_columns_have_no_spectrum(self):
        # every task row is constant, so task-centering leaves exactly zero
        col = np.random.default_rng(3).random(20)
        with pytest.raises(ValueError, match="all-zero spectrum"):
            ed_of_matrix(np.column_stack([col] * 3))



@st.composite
def score_grids(draw):
    """Partial-credit grids (cells in quarters), tall or wide, with some rows
    duplicated so that rank deficiency is common."""
    t = draw(st.integers(2, 14))
    n = draw(st.integers(2, 14))
    cells = draw(st.lists(st.integers(0, 4), min_size=t * n, max_size=t * n))
    x = np.asarray(cells, dtype=float).reshape(t, n) / 4.0
    copies = draw(st.lists(st.integers(0, t - 1), max_size=t))
    return np.vstack([x, x[copies]])


class TestGramKernelAgainstSvd:
    @settings(max_examples=300, deadline=None)
    @given(x=score_grids(), scheme=st.sampled_from(CENTERING_SCHEMES))
    def test_ed_and_spectrum_match_svd(self, x, scheme):
        xc = center(x, scheme)
        ref = np.linalg.svd(xc, compute_uv=False)
        top = ref[0]
        if top == 0.0:
            with pytest.raises(ValueError, match="all-zero"):
                ed_of_matrix(x, scheme)
            return
        lam = ref**2
        assert math.isclose(
            ed_of_matrix(x, scheme), lam.sum() ** 2 / np.dot(lam, lam), rel_tol=1e-9
        )
        got = singular_spectrum(xc).sigmas
        assert got.shape == ref.shape
        # Gram eigenvalues carry absolute error of order eps x top**2, so the
        # agreement is measured on the scale of the top singular value.
        keep = ref >= 1e-6 * top
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-8, atol=1e-8 * top)


def one_column_label(sub, scheme):
    """Whether every column of ``sub`` carries one label: all columns equal,
    under "double" all differing by constants, under "model" also all
    constant."""
    cols = sub - sub[0] if scheme == "double" else sub
    if (cols == cols[:, :1]).all():
        return True
    return scheme == "model" and bool((sub == sub[0]).all())


class TestColumnResampleEds:
    @settings(max_examples=300, deadline=None)
    @given(
        x=score_grids(),
        scheme=st.sampled_from(CENTERING_SCHEMES),
        data=st.data(),
    )
    def test_matches_ed_of_resampled_grid(self, x, scheme, data):
        n = x.shape[1]
        col_copies = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        x = np.hstack([x, x[:, col_copies]])
        n = x.shape[1]
        subsets = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=3)
        )
        got = _column_resample_eds(x, [np.array(idx) for idx in subsets], scheme)
        assert got.shape == (len(subsets),)
        for ed, idx in zip(got, subsets):
            sub = x[:, idx]
            if one_column_label(sub, scheme):
                assert math.isnan(ed)
            else:
                assert math.isclose(ed, ed_of_matrix(sub, scheme), rel_tol=1e-9)

    def test_equal_continuous_columns_skip_ed_of_matrix(self, monkeypatch):
        # Task-centering equal continuous columns leaves rounding noise, which
        # the factor would score; the label rule marks them before any call.
        x = np.random.default_rng(4).random((40, 7))
        x[:, 3:] = x[:, [2]]
        calls = []
        monkeypatch.setattr(spectral, "ed_of_matrix", lambda *a: calls.append(a) or ed_of_matrix(*a))
        got = _column_resample_eds(x, [[2, 3, 4, 5], [0, 2, 3]], "task")
        assert math.isnan(got[0])
        assert math.isclose(got[1], ed_of_matrix(x[:, [0, 2, 3]]), rel_tol=1e-9)
        assert len(calls) == 1
