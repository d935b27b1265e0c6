import numpy as np
import pytest

from spectradiag import (
    BinarizationPolicy,
    binarize,
    drop_degenerate_tasks,
    impute_missing,
    load_matrix,
    load_metadata,
    save_matrix,
    score_matrix,
)
from spectradiag.matrix_io import MatrixValidationError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_smallest_binary_csv(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,0,1\nt2,1,1\nt3,0,0\n")
        m = load_matrix(p)
        assert m.kind == "binary"
        assert m.shape == (3, 2)
        assert m.task_ids == ("t1", "t2", "t3")

    def test_continuous_value_sets_kind(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,0.73,1\n")
        assert load_matrix(p).kind == "continuous"

    def test_blank_cell_marks_missing(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,,1\nt2,0,1\n")
        m = load_matrix(p)
        assert m.missing[0, 0]
        assert not m.missing[0, 1]
        assert np.isnan(m.values[0, 0])

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,oops,1\n")
        with pytest.raises(MatrixValidationError, match="t1.*'a'|'a'.*t1"):
            load_matrix(p)

    def test_duplicate_task_id_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,0,1\nt1,1,1\n")
        with pytest.raises(MatrixValidationError, match="duplicate task"):
            load_matrix(p)

    def test_duplicate_model_id_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,a\nt1,0,1\n")
        with pytest.raises(MatrixValidationError, match="duplicate model"):
            load_matrix(p)

    def test_empty_matrix_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\n")
        with pytest.raises(MatrixValidationError, match="no task rows"):
            load_matrix(p)

    def test_out_of_range_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,1.5,0\n")
        with pytest.raises(MatrixValidationError, match=r"\[0, 1\]"):
            load_matrix(p)

    def test_json_roundtrip(self, tmp_path, tiny_continuous):
        p = tmp_path / "m.json"
        save_matrix(tiny_continuous, p, format="json")
        back = load_matrix(p, format="json")
        assert back.task_ids == tiny_continuous.task_ids
        np.testing.assert_allclose(back.values, tiny_continuous.values)

    def test_missing_fraction_warns_above_5pct(self):
        vals = np.zeros((10, 2))
        mask = np.zeros((10, 2), dtype=bool)
        mask[:2, 0] = True
        with pytest.warns(UserWarning, match="missing fraction"):
            score_matrix([f"t{i}" for i in range(10)], ["a", "b"], vals, mask)


class TestRoundTrip:
    def test_csv_roundtrip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.random((6, 4))
        mask = rng.random((6, 4)) < 0.04
        m = score_matrix([f"t{i}" for i in range(6)], list("abcd"), vals, mask)
        p = tmp_path / "roundtrip.csv"
        save_matrix(m, p)
        back = load_matrix(p)
        assert back.task_ids == m.task_ids
        assert back.model_ids == m.model_ids
        assert np.array_equal(back.missing, m.missing)
        present = ~m.missing
        np.testing.assert_allclose(
            back.values[present], m.values[present], rtol=0, atol=1e-12
        )


class TestBinarize:
    def test_strictly_above_threshold_passes(self, tiny_continuous):
        b = binarize(tiny_continuous)
        # 0.51 > 0.5 -> 1 ; 0.50 -> 0
        m = score_matrix(["t"], ["a", "b"], [[0.51, 0.50]])
        bb = binarize(m)
        assert bb.values[0, 0] == 1.0
        assert bb.values[0, 1] == 0.0
        assert b.kind == "binary"

    def test_idempotent_on_binary(self, tiny_binary):
        once = binarize(tiny_binary)
        twice = binarize(once)
        np.testing.assert_array_equal(once.values, tiny_binary.values)
        np.testing.assert_array_equal(twice.values, once.values)

    def test_missing_stays_missing(self):
        m = score_matrix(["t"], ["a", "b", "c"], [[0.9, np.nan, 0.2]])
        b = binarize(m)
        assert b.missing[0, 1]

    def test_threshold_validated(self):
        with pytest.raises(MatrixValidationError):
            BinarizationPolicy(threshold=0.0)

    def test_custom_threshold(self):
        m = score_matrix(["t"], ["a", "b"], [[0.35, 0.65]])
        b3 = binarize(m, BinarizationPolicy(threshold=0.3))
        assert list(b3.values[0]) == [1.0, 1.0]
        b7 = binarize(m, BinarizationPolicy(threshold=0.7))
        assert list(b7.values[0]) == [0.0, 0.0]


class TestImpute:
    def test_column_mean_fills_gap(self):
        m = score_matrix(
            ["t1", "t2", "t3"], ["a", "b"], [[1, 1], [np.nan, 0], [0, 1]]
        )
        out = impute_missing(m)
        assert out.values[1, 0] == 0.5
        assert out.is_complete

    def test_noop_on_complete(self, tiny_binary):
        assert impute_missing(tiny_binary) is tiny_binary

    def test_constant_column_mean(self):
        m = score_matrix(
            ["t1", "t2", "t3", "t4"],
            ["a", "b"],
            [[1, 0], [1, 1], [np.nan, 0], [1, 1]],
        )
        out = impute_missing(m)
        assert out.values[2, 0] == 1.0

    def test_idempotent(self):
        m = score_matrix(["t1", "t2"], ["a", "b"], [[1, np.nan], [0, 1]])
        once = impute_missing(m)
        twice = impute_missing(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_fully_missing_column_names_model(self):
        m = score_matrix(
            ["t1", "t2"], ["a", "bad"], [[1, np.nan], [0, np.nan]]
        )
        with pytest.raises(MatrixValidationError, match="bad"):
            impute_missing(m)


class TestDropDegenerate:
    def test_constant_row_dropped(self):
        m = score_matrix(
            ["keep", "allpass", "vary"],
            ["a", "b", "c"],
            [[0, 1, 0], [1, 1, 1], [1, 0, 1]],
        )
        kept, dropped = drop_degenerate_tasks(m)
        assert dropped == ["allpass"]
        assert kept.n_tasks == 2
        np.testing.assert_array_equal(kept.values[0], m.values[0])

    def test_all_degenerate_errors(self):
        m = score_matrix(["t1", "t2"], ["a", "b"], [[1, 1], [0, 0]])
        with pytest.raises(MatrixValidationError, match="degenerate"):
            drop_degenerate_tasks(m)


class TestMetadata:
    def test_load_and_check_against_matrix(self, tmp_path, tiny_binary):
        p = write(
            tmp_path / "meta.json",
            '[{"model_id": "m1", "log_param_count": 22.1, "date": "2025-03-01",'
            ' "family": "qwen", "labels": {"code": true}}]',
        )
        metas = load_metadata(p, tiny_binary)
        assert metas[0].family == "qwen"
        assert metas[0].date.year == 2025
        assert metas[0].labels == {"code": True}

    def test_unknown_model_rejected(self, tmp_path, tiny_binary):
        p = write(tmp_path / "meta.json", '[{"model_id": "ghost"}]')
        with pytest.raises(MatrixValidationError, match="ghost"):
            load_metadata(p, tiny_binary)

    def test_bad_date_rejected(self, tmp_path):
        p = write(tmp_path / "meta.json", '[{"model_id": "m1", "date": "03/01/2025"}]')
        with pytest.raises(MatrixValidationError, match="non-ISO date"):
            load_metadata(p)

    def test_non_object_record_rejected(self, tmp_path):
        p = write(tmp_path / "meta.json", '[{"model_id": "m1"}, "m2"]')
        with pytest.raises(MatrixValidationError, match=r"meta\.json: metadata record 1 "):
            load_metadata(p)

    def test_non_object_labels_rejected(self, tmp_path):
        p = write(tmp_path / "meta.json", '[{"model_id": "m1", "labels": ["code"]}]')
        with pytest.raises(MatrixValidationError, match=r"meta\.json: metadata record 0 .*labels"):
            load_metadata(p)


class TestSubsets:
    def test_subset_models_keeps_values(self, tiny_binary):
        sub = tiny_binary.subset_models(["m3", "m1"])
        assert sub.model_ids == ("m3", "m1")
        np.testing.assert_array_equal(sub.values[:, 0], tiny_binary.values[:, 2])

    def test_subset_tasks(self, tiny_binary):
        sub = tiny_binary.subset_tasks(["t2"])
        assert sub.task_ids == ("t2",)
