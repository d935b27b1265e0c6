import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from spectradiag.association import pairwise_correlation, save_corr_csv
from spectradiag.cli import main
from spectradiag import matrix_io
from spectradiag.matrix_io import (
    MatrixValidationError,
    ScoreMatrix,
    _read_csv_grid,
    _write_csv_grid,
)
from spectradiag.temporal import EdSeries


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

    def test_out_of_range_cell_located(self, tmp_path):
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,0.5,0\n\nt2,0,-0.25\nt3,2,1\n")
        rule = r"m\.csv:4: cell -0\.25 outside \[0, 1\] for task 't2', model 'b'$"
        with pytest.raises(MatrixValidationError, match=rule):
            load_matrix(p)
        p = write(tmp_path / "m.json", json.dumps(
            {"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], "values": [[0, None], [1.5, 0]]}
        ))
        rule = r"m\.json: cell 1\.5 outside \[0, 1\] at values index \[1, 0\]$"
        with pytest.raises(MatrixValidationError, match=rule):
            load_matrix(p, format="json")

    def test_duplicate_ids_worded_as_in_memory_with_file_line(self, tmp_path):
        with pytest.raises(MatrixValidationError, match="^duplicate model id: 'a'$"):
            score_matrix(["t1"], ["a", "a"], [[1, 0]])
        p = write(tmp_path / "m.csv", "task_id,a,a\nt1,1,0\n")
        with pytest.raises(MatrixValidationError, match=r"m\.csv:1: duplicate model id: 'a'$"):
            load_matrix(p)
        p = write(tmp_path / "m.csv", "task_id,a,b\nt1,1,0\n\nt2,0,1\nt1,1,1\n")
        with pytest.raises(MatrixValidationError, match=r"m\.csv:5: duplicate task id: 't1'$"):
            load_matrix(p)
        p = write(tmp_path / "m.json", json.dumps(
            {"task_ids": ["t1", "t1"], "model_ids": ["a", "b"], "values": [[0, 1], [1, 0]]}
        ))
        with pytest.raises(MatrixValidationError, match=r"m\.json: duplicate task id: 't1'$"):
            load_matrix(p, format="json")

    def test_json_roundtrip(self, tmp_path, tiny_continuous):
        p = tmp_path / "m.json"
        save_matrix(tiny_continuous, p, format="json")
        back = load_matrix(p, format="json")
        assert back.task_ids == tiny_continuous.task_ids
        np.testing.assert_allclose(back.values, tiny_continuous.values)

    @pytest.mark.parametrize(
        "values, index, cell",
        [
            ('[[true, "0.5"], [0, "1e-1"]]', "[0, 0]", "True"),
            ('[[1, "0.5"], [0, "1e-1"]]', "[0, 1]", "'0.5'"),
            ("[[1, 0], [0.5, false]]", "[1, 1]", "False"),
            ("[[1, 0], [[0.5], 1]]", "[1, 0]", "[0.5]"),
        ],
    )
    def test_json_non_number_cell_rejected(self, tmp_path, values, index, cell):
        p = write(
            tmp_path / "m.json",
            f'{{"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], "values": {values}}}',
        )
        with pytest.raises(MatrixValidationError) as err:
            load_matrix(p, format="json")
        assert str(err.value) == f"{p}: non-numeric cell {cell} at values index {index}"

    def test_json_ints_floats_and_nulls_accepted(self, tmp_path):
        p = write(
            tmp_path / "m.json",
            '{"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], "values": [[1, 0.25], [null, 0]]}',
        )
        m = load_matrix(p, format="json")
        assert m.missing.tolist() == [[False, False], [True, False]]
        assert m.values[0].tolist() == [1.0, 0.25] and m.values[1, 1] == 0.0

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


def reference_csv_writer(path, corner, row_ids, col_ids, values):
    """The CSV grid writer as it was before it streamed rows: one whole-grid
    ``tolist()``, NaN as an empty field, every other value as ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner, *col_ids])
        for row_id, row in zip(row_ids, np.asarray(values, dtype=float).tolist()):
            writer.writerow([row_id, *("" if v != v else repr(v) for v in row)])


def reference_json_writer(m, path):
    """The JSON matrix writer as it was before it wrote one row at a time."""
    payload = {
        "task_ids": list(m.task_ids),
        "model_ids": list(m.model_ids),
        "values": [
            [None if m.missing[i, j] else float(m.values[i, j]) for j in range(m.n_models)]
            for i in range(m.n_tasks)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# Text with every character csv.writer quotes for, edge spaces and non-ASCII.
AWKWARD_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "b", "é", "漢"], max_size=6)
EDGE_VALUES = [-0.0, 0.0, 5e-324, 1e-5, 1e16, np.nan]
CELLS_ANY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES)
)
UNIT_CELLS = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1.0, np.nan])
)


def grid_rows(n, cells):
    """One row of n cells, sometimes all NaN."""
    return st.one_of(st.just([np.nan] * n), st.lists(cells, min_size=n, max_size=n))


@st.composite
def csv_grids(draw):
    """(corner, row_ids, col_ids, values) that the grid reader can read back:
    ids unique once stripped, and no row that is blank from id to last cell."""
    t, n = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    row_ids = draw(st.one_of(
        st.lists(AWKWARD_TEXT.filter(str.strip), min_size=t, max_size=t, unique_by=str.strip),
        st.lists(st.integers(-(10**20), 10**20), min_size=t, max_size=t, unique=True),
        st.lists(st.floats(allow_nan=False), min_size=t, max_size=t, unique_by=repr),
        st.lists(st.floats(allow_nan=False).map(np.float64), min_size=t, max_size=t,
                 unique_by=lambda v: repr(float(v))),
    ))
    col_ids = draw(st.lists(AWKWARD_TEXT, min_size=n, max_size=n, unique_by=str.strip))
    rows = draw(st.lists(grid_rows(n, CELLS_ANY), min_size=t, max_size=t))
    return draw(AWKWARD_TEXT), row_ids, col_ids, np.array(rows, dtype=float).reshape(t, n)


class TestWriterBytes:
    @pytest.fixture
    def awkward(self):
        rng = np.random.default_rng(3)
        vals = rng.random((40, 7))
        vals[:, 0] = np.round(vals[:, 0], 2)
        vals[0] = [0.0, -0.0, 1.0, 1e-300, 0.1, 1 / 3, 5e-324]
        mask = rng.random((40, 7)) < 0.1
        mask[0] = False
        return score_matrix([f"t,{i}" for i in range(40)], list("abcdefg"), vals, mask)

    def test_csv_bytes_equal_whole_grid_writer(self, tmp_path, awkward):
        save_matrix(awkward, tmp_path / "new.csv")
        reference_csv_writer(
            tmp_path / "old.csv", "task_id", awkward.task_ids, awkward.model_ids, awkward.values
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = load_matrix(tmp_path / "new.csv")
        assert np.array_equal(back.values, awkward.values, equal_nan=True)
        assert np.array_equal(back.missing, awkward.missing)
        save_matrix(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

    def test_json_bytes_equal_full_payload_dump(self, tmp_path, awkward):
        save_matrix(awkward, tmp_path / "new.json", format="json")
        reference_json_writer(awkward, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        back = load_matrix(tmp_path / "new.json", format="json")
        assert np.array_equal(back.values, awkward.values, equal_nan=True)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_grids())
    def test_csv_grid_bytes_equal_reference_writer(self, tmp_path, grid):
        corner, row_ids, col_ids, values = grid
        _write_csv_grid(tmp_path / "new.csv", corner, row_ids, col_ids, values)
        reference_csv_writer(tmp_path / "old.csv", corner, row_ids, col_ids, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        if not row_ids:
            return  # a header-only file, which the reader rejects
        _, back_rows, back_cols, back, missing, _ = _read_csv_grid(
            tmp_path / "new.csv", "row", "column"
        )
        # csv.writer writes a float id (np.float64 included) as its float repr
        ids = [repr(float(r)) if isinstance(r, float) else str(r) for r in row_ids]
        assert back_rows == [i.strip() for i in ids]
        assert back_cols == [c.strip() for c in col_ids]
        assert np.array_equal(missing, np.isnan(values))
        assert back[~missing].tobytes() == values[~missing].tobytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 5).flatmap(lambda t: st.integers(2, 4).flatmap(
        lambda n: st.lists(grid_rows(n, UNIT_CELLS), min_size=t, max_size=t))))
    def test_load_matrix_reads_back_every_bit(self, tmp_path, rows):
        t, n = len(rows), len(rows[0])
        m = score_matrix([f"t{i}" for i in range(t)], [f"m{j}" for j in range(n)], rows)
        save_matrix(m, tmp_path / "new.csv")
        reference_csv_writer(tmp_path / "old.csv", "task_id", m.task_ids, m.model_ids, m.values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = load_matrix(tmp_path / "new.csv")
        # -0.0 and 5e-324 keep their bits; NaN sits at the same missing cells
        assert back.values.tobytes() == m.values.tobytes()
        assert np.array_equal(back.missing, m.missing)

    def test_grid_without_value_columns(self, tmp_path):
        with pytest.raises(MatrixValidationError, match="at least one value column"):
            _write_csv_grid(tmp_path / "g.csv", "id", ["a"], [], np.zeros((1, 0)))
        _write_csv_grid(tmp_path / "new.csv", "id", [], [], np.zeros((0, 0)))
        reference_csv_writer(tmp_path / "old.csv", "id", [], [], np.zeros((0, 0)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_series_csv_bytes(self, tmp_path):
        series = EdSeries(x=(-0.5, np.float64(1e-5), 3, 1e16), ed=(2.5, np.nan, -0.0, 5e-324))
        series.save_csv(tmp_path / "new.csv")
        ed = np.array(series.ed, dtype=float)[:, None]
        reference_csv_writer(tmp_path / "old.csv", "x", series.x, ["ed"], ed)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_corr_csv_bytes(self, tmp_path):
        rows = np.random.default_rng(5).standard_normal((4, 12))
        rows[1] = 0.25  # degenerate: a NaN row and column
        c = pairwise_correlation(rows, ids=["a,b", ' "q"', "é\n", "z"], method="pearson")
        save_corr_csv(c, tmp_path / "new.csv")
        reference_csv_writer(tmp_path / "old.csv", "id", c.ids, c.ids, c.values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_compress_csv_bytes(self, tmp_path, capsys):
        vals = (np.random.default_rng(8).random((40, 6)) < 0.5).astype(float)
        save_matrix(score_matrix([f"t{i}" for i in range(40)], list("abcdef"), vals),
                    tmp_path / "m.csv")
        code = main(["compress", "--matrix", str(tmp_path / "m.csv"), "--trials", "3",
                     "--csv", str(tmp_path / "new.csv")])
        assert code == 0
        curve = json.loads(capsys.readouterr().out)["result"]["curve"]
        grid = np.array([[f, np.nan if tau is None else tau] for f, tau in curve])
        assert np.isfinite(grid[:, 1]).any()
        reference_csv_writer(
            tmp_path / "old.csv", "fraction", grid[:, 0], ["mean_tau"], grid[:, 1:]
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_json_single_row_bytes(self, tmp_path):
        m = score_matrix(["t"], ["a", "b"], [[0.5, np.nan]])
        save_matrix(m, tmp_path / "new.json", format="json")
        reference_json_writer(m, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def load_json_reference(path):
    """The JSON loader as it was before it converted row by row: an object
    array of the parsed lists, a type pass over every cell, then
    ``np.where(...).astype(float)``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        task_ids = payload["task_ids"]
        model_ids = payload["model_ids"]
        raw = payload["values"]
    except (KeyError, TypeError):
        raise MatrixValidationError(f"{path}: expected keys task_ids, model_ids, values") from None
    try:
        cells = np.array(raw, dtype=object)
    except ValueError:
        cells = None
    if cells is None or cells.ndim != 2:
        raise MatrixValidationError(
            f"{path}: values must be a rectangular grid of numbers and nulls"
        )
    for i, row in enumerate(raw):
        for j, cell in enumerate(row):
            if cell is not None and type(cell) not in (int, float):
                raise MatrixValidationError(
                    f"{path}: non-numeric cell {cell!r} at values index [{i}, {j}]"
                )
    missing = np.equal(cells, None)
    try:
        values = np.where(missing, np.nan, cells).astype(float)
    except OverflowError:
        for i, row in enumerate(raw):
            for j, cell in enumerate(row):
                try:
                    float(cell or 0)
                except OverflowError:
                    raise MatrixValidationError(
                        f"{path}: integer cell out of float range at values index [{i}, {j}]"
                    ) from None
        raise
    bad = np.argwhere(~(np.isfinite(values) | missing))
    if bad.size:
        raise MatrixValidationError(f"{path}: non-finite cell at values index {bad[0].tolist()}")
    # the range check names its cell and comes before the shape checks
    bad = np.argwhere((values < 0.0) | (values > 1.0))
    if bad.size:
        cell = float(values[tuple(bad[0])])
        raise MatrixValidationError(
            f"{path}: cell {cell!r} outside [0, 1] at values index {bad[0].tolist()}"
        )
    return score_matrix(task_ids, model_ids, values, missing)


SCALAR_CELLS = st.one_of(
    st.none(),
    st.sampled_from([0, 1]),
    st.floats(0.0, 1.0),
    st.sampled_from([True, "0.5", 2**70, 10**400, -(10**400), float("nan"), float("inf"), 1.5]),
)
CELLS = st.one_of(SCALAR_CELLS, st.lists(SCALAR_CELLS, max_size=2))


@st.composite
def json_values(draw):
    """Mostly valid grids of 0/1, [0, 1] floats and nulls, with bad cells
    (bools, strings, huge integers, NaN, inf, lists) and bad shapes: ragged
    rows, a flat list, a scalar, an empty list, and cells that are all lists
    of one length (a third dimension)."""
    shape = draw(st.sampled_from(["grid"] * 6 + ["ragged", "flat", "scalar", "empty", "deep"]))
    t, n = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    valid = st.one_of(st.none(), st.sampled_from([0, 1]), st.floats(0.0, 1.0))
    cell = st.one_of(valid, valid, valid, CELLS)
    if shape == "flat":
        return draw(st.lists(SCALAR_CELLS, max_size=4))
    if shape == "scalar":
        return draw(SCALAR_CELLS)
    if shape == "empty":
        return []
    if shape == "deep":
        d = draw(st.integers(0, 2))
        return draw(st.lists(
            st.lists(st.lists(SCALAR_CELLS, min_size=d, max_size=d), min_size=n, max_size=n),
            min_size=t, max_size=t,
        ))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=t, max_size=t))
    if shape == "ragged":
        rows[draw(st.integers(0, t - 1))].append(0)
    return rows


def load_outcome(loader, path):
    try:
        m = loader(path)
    except MatrixValidationError as err:
        return ("error", str(err))
    return (m.task_ids, m.model_ids, m.values.tobytes(), m.missing.tobytes(), m.kind)


class TestJsonLoader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(json_values())
    def test_matches_object_array_reference(self, tmp_path, raw):
        width = len(raw[0]) if isinstance(raw, list) and raw and isinstance(raw[0], list) else 2
        rows = len(raw) if isinstance(raw, list) else 1
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "task_ids": [f"t{i}" for i in range(rows)],
            "model_ids": [f"m{j}" for j in range(width)],
            "values": raw,
        }), encoding="utf-8")
        assert load_outcome(lambda q: load_matrix(q, format="json"), p) == load_outcome(
            load_json_reference, p
        )

    @pytest.mark.parametrize(
        "values, message",
        [
            # the ragged row wins over the earlier string cell
            ('[[1, "x"], [0]]', "values must be a rectangular grid of numbers and nulls"),
            ("[[[0], [1]], [[1], [0]]]", "values must be a rectangular grid of numbers and nulls"),
            # a type error in a later row wins over an earlier huge integer
            ("[[1" + "0" * 400 + ", 0], [1, true]]", "non-numeric cell True at values index [1, 1]"),
            ("[[0, NaN], [1" + "0" * 400 + ", 0]]",
             "integer cell out of float range at values index [1, 0]"),
            ("[[0, 1], [Infinity, NaN]]", "non-finite cell at values index [1, 0]"),
        ],
    )
    def test_error_order(self, tmp_path, values, message):
        p = write(
            tmp_path / "m.json",
            f'{{"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], "values": {values}}}',
        )
        with pytest.raises(MatrixValidationError) as err:
            load_matrix(p, format="json")
        assert str(err.value) == f"{p}: {message}"

    def test_peak_below_7_grids(self, tmp_path):
        # json.load alone holds the file text plus one Python float and one
        # list slot per cell, about 6.7 grids here; the object-array
        # conversion took the loader to 8.0
        shape = (1000, 100)
        rng = np.random.default_rng(17)
        vals = rng.random(shape)
        mask = rng.random(shape) < 0.02
        vals[mask] = np.nan
        m = score_matrix([f"task_{i}" for i in range(shape[0])],
                         [f"model_{j}" for j in range(shape[1])], vals, mask)
        save_matrix(m, tmp_path / "g.json", format="json")
        ratio = TestMemory.peak_ratio(
            lambda: load_matrix(tmp_path / "g.json", format="json"), shape
        )
        assert ratio < 7.0


class TestMemory:
    """Peak traced allocation of the loader layer, as a multiple of the
    grid's float64 bytes, on a 4000 x 100 grid with 2% missing cells."""

    SHAPE = (4000, 100)

    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        rng = np.random.default_rng(17)
        vals = rng.random(self.SHAPE)
        mask = rng.random(self.SHAPE) < 0.02
        vals[mask] = np.nan
        t_ids = [f"task_{i}" for i in range(self.SHAPE[0])]
        m_ids = [f"model_{j}" for j in range(self.SHAPE[1])]
        m = score_matrix(t_ids, m_ids, vals, mask)
        path = tmp_path_factory.mktemp("mem") / "grid.csv"
        save_matrix(m, path)
        return m, vals, mask, path

    @staticmethod
    def peak_ratio(fn, shape=SHAPE) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (8 * shape[0] * shape[1])

    def test_load_matrix_below_3_5_grids(self, grid):
        path = grid[3]
        assert self.peak_ratio(lambda: load_matrix(path)) < 3.5

    def test_read_csv_grid_below_1_5_grids(self, grid):
        """Rows go straight into one grid and mask grown by doubling (4096
        rows here) and trimmed at the end: no per-row arrays, no second grid."""
        path = grid[3]
        assert self.peak_ratio(lambda: _read_csv_grid(path, "task", "model")) < 1.5

    def test_load_matrix_keeps_the_read_grid(self, grid):
        path = grid[3]
        assert self.peak_ratio(lambda: load_matrix(path)) < 1.75

    def test_score_matrix_below_2_grids(self, grid):
        m, vals, mask, _ = grid
        assert self.peak_ratio(lambda: score_matrix(m.task_ids, m.model_ids, vals, mask)) < 2.0

    def test_csv_save_below_1_grid(self, grid, tmp_path):
        m = grid[0]
        assert self.peak_ratio(lambda: save_matrix(m, tmp_path / "out.csv")) < 1.0

    @pytest.mark.parametrize(
        "derive", ["subset_tasks", "subset_models", "impute_missing", "binarize"]
    )
    def test_derived_matrix_below_1_75_results(self, grid, derive):
        """A matrix the module derives keeps the array it gathered or filled:
        no second copy in the constructor. The bound is in the result's bytes."""
        m = grid[0]
        fn = {
            "subset_tasks": lambda: m.subset_tasks(m.task_ids[::2]),
            "subset_models": lambda: m.subset_models(m.model_ids[::2]),
            "impute_missing": lambda: impute_missing(m),
            "binarize": lambda: binarize(m),
        }[derive]
        assert self.peak_ratio(fn, fn().shape) < 1.75


class TestCsvGrowth:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 17, 64, 65])
    def test_rows_across_doublings(self, tmp_path, n_rows):
        """Every row count around a doubling reads back its cells, its
        missing mask and its line numbers, with blank lines in between."""
        rng = np.random.default_rng(n_rows)
        vals = rng.random((n_rows, 3))
        mask = rng.random((n_rows, 3)) < 0.3
        lines = ["task_id,a,b,c"]
        for i, (row, gaps) in enumerate(zip(vals, mask)):
            lines.append(f"t{i}," + ",".join("" if g else repr(v) for v, g in zip(row.tolist(), gaps)))
            lines.append("")
        path = write(tmp_path / "m.csv", "\n".join(lines) + "\n")
        corner, row_ids, col_ids, got, missing, linenos = _read_csv_grid(path, "task", "model")
        assert (corner, col_ids) == ("task_id", ["a", "b", "c"])
        assert row_ids == [f"t{i}" for i in range(n_rows)]
        assert linenos == [2 + 2 * i for i in range(n_rows)]
        assert got.shape == missing.shape == (n_rows, 3)
        np.testing.assert_array_equal(missing, mask)
        np.testing.assert_array_equal(got, np.where(mask, np.nan, vals))

    def test_late_error_keeps_its_line(self, tmp_path):
        body = "".join(f"t{i},0.5,0.25\n" for i in range(40))
        path = write(tmp_path / "m.csv", "task_id,a,b\n" + body + "t40,0.5,x\n")
        with pytest.raises(MatrixValidationError, match=r"m\.csv:42: non-numeric cell 'x'"):
            _read_csv_grid(path, "task", "model")

    @pytest.mark.parametrize(
        "cell", ["0_1", "\u0661", "\u00a00.5"], ids=["underscore", "non_ascii_digit", "non_ascii_space"]
    )
    def test_value_cells_are_ascii_numeric_syntax(self, tmp_path, cell):
        """``float`` reads each of these cells as a number; a value cell must
        not hold them, while ids keep ``_`` and non-ASCII text."""
        assert float(cell) in (1.0, 0.5)
        header = "task_id,m_1,mod\u00e8le\n"
        m = load_matrix(write(tmp_path / "ok.csv", header + "t_\u00e9,0.5,0.25\n"))
        assert (m.task_ids, m.model_ids) == (("t_\u00e9",), ("m_1", "mod\u00e8le"))
        path = write(tmp_path / "m.csv", header + f"t_1,0.5,0.25\nt_2,0.5,{cell}\n")
        want = f"m.csv:3: non-numeric cell {cell!r} for task 't_2', model 'mod\u00e8le'"
        with pytest.raises(MatrixValidationError) as err:
            load_matrix(path)
        assert str(err.value).endswith(want)


class TestOneCopy:
    def test_dense_values_is_the_read_only_grid(self, tiny_continuous):
        dense = tiny_continuous.dense_values()
        assert dense is tiny_continuous.values
        assert np.shares_memory(dense, tiny_continuous.values)
        with pytest.raises(ValueError, match="read-only"):
            dense[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            dense *= 2.0

    def test_construction_copies_caller_arrays(self):
        vals = np.array([[0.2, 0.4], [0.6, 0.8]])
        mask = np.array([[False, True], [False, False]])
        m = score_matrix(["t1", "t2"], ["a", "b"], vals, mask)
        assert not np.shares_memory(m.values, vals)
        assert not np.shares_memory(m.missing, mask)
        assert not m.values.flags.writeable and not m.missing.flags.writeable
        vals[0, 0] = 0.9
        mask[1, 1] = True
        assert m.values[0, 0] == 0.2 and not m.missing[1, 1]
        assert vals[0, 1] == 0.4  # the NaN at the missing cell lands in the copy only
        assert np.isnan(m.values[0, 1])


class TestOneValidationPass:
    """Every builder ends in one ``ScoreMatrix._adopt``; the public
    constructor keeps its copy-and-reject contract."""

    @pytest.fixture
    def zero_one_calls(self, monkeypatch):
        calls = []
        original = matrix_io._zero_one

        def counting(values, missing):
            calls.append(values.shape)
            return original(values, missing)

        monkeypatch.setattr(matrix_io, "_zero_one", counting)
        return calls

    @pytest.mark.parametrize("kind, calls", [(None, 1), ("binary", 1), ("continuous", 0)])
    def test_score_matrix_checks_zero_one_once(self, zero_one_calls, kind, calls):
        m = score_matrix(["t1", "t2"], ["a", "b"], [[1.0, np.nan], [0.0, 1.0]], kind=kind)
        assert m.kind == (kind or "binary")
        assert m.missing.tolist() == [[False, True], [False, False]]
        assert len(zero_one_calls) == calls

    def test_owning_checks_zero_one_once(self, zero_one_calls):
        values = np.array([[1.0, 0.0], [np.inf, 1.0]])
        missing = np.zeros((2, 2), dtype=bool)
        m = ScoreMatrix._owning(("t1", "t2"), ("a", "b"), values, missing)
        assert m.kind == "binary" and m.values is values and m.missing is missing
        assert missing.tolist() == [[False, False], [True, False]]
        assert zero_one_calls == [(2, 2)]

    def test_constructor_copies_and_rejects(self):
        vals = np.array([[0.0, 1.0], [1.0, np.nan]])
        mask = np.array([[False, False], [False, True]])
        m = ScoreMatrix(("t1", "t2"), ("a", "b"), vals, mask, "binary")
        assert not np.shares_memory(m.values, vals) and not np.shares_memory(m.missing, mask)
        assert not m.values.flags.writeable and not m.missing.flags.writeable
        with pytest.raises(MatrixValidationError, match="^non-missing cells must be finite$"):
            ScoreMatrix(("t1", "t2"), ("a", "b"), vals, np.zeros((2, 2), dtype=bool), "binary")
        for kind in (None, "ordinal"):
            with pytest.raises(MatrixValidationError, match=f"^unknown kind: {kind!r}$"):
                ScoreMatrix(("t1", "t2"), ("a", "b"), vals, mask, kind)

    def test_score_matrix_rejects_mask_of_another_shape(self):
        # a (1, 2) mask is not broadcast over the rows
        with pytest.raises(MatrixValidationError, match="missing mask must match the grid shape"):
            score_matrix(["t1", "t2"], ["a", "b"], np.zeros((2, 2)), np.zeros((1, 2), bool))

    @pytest.mark.parametrize("build", ["score_matrix", "constructor", "csv", "json", "binarize"])
    def test_missing_fraction_warning_names_the_caller(self, tmp_path, build):
        vals = np.zeros((10, 2))
        mask = np.zeros((10, 2), dtype=bool)
        mask[:2, 0] = True
        ids = tuple(f"t{i}" for i in range(10))
        with pytest.warns(UserWarning):
            m = score_matrix(ids, ["a", "b"], vals, mask)
        save_matrix(m, tmp_path / "m.csv")
        save_matrix(m, tmp_path / "m.json", format="json")
        fn = {
            "score_matrix": lambda: score_matrix(ids, ["a", "b"], vals, mask),
            "constructor": lambda: ScoreMatrix(ids, ("a", "b"), vals, mask, "binary"),
            "csv": lambda: load_matrix(tmp_path / "m.csv"),
            "json": lambda: load_matrix(tmp_path / "m.json", format="json"),
            "binarize": lambda: binarize(m),
        }[build]
        with pytest.warns(UserWarning, match="missing fraction") as record:
            fn()
        assert [w.filename for w in record] == [__file__]


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
        with pytest.raises(MatrixValidationError, match=r"meta\.json: unknown model id: 'ghost'"):
            load_metadata(p, tiny_binary)

    @pytest.mark.parametrize("model_id", ['["m1"]', '{"m": 1}', "1"])
    def test_non_string_model_id_rejected(self, tmp_path, tiny_binary, model_id):
        p = write(tmp_path / "meta.json", f'[{{"model_id": {model_id}}}]')
        with pytest.raises(MatrixValidationError, match="is not a string"):
            load_metadata(p, tiny_binary)

    @pytest.mark.parametrize("with_matrix", [False, True])
    def test_repeated_model_id_rejected(self, tmp_path, tiny_binary, with_matrix):
        p = write(
            tmp_path / "meta.json",
            '[{"model_id": "m1", "family": "x"}, {"model_id": "m2"},'
            ' {"model_id": "m1", "family": "y"}]',
        )
        with pytest.raises(MatrixValidationError, match=r"meta\.json: duplicate model id: 'm1'"):
            load_metadata(p, tiny_binary if with_matrix else None)

    @pytest.mark.parametrize("model_id", ['["m1"]', '{"m": 1}', "1"])
    def test_non_string_model_id_rejected_without_matrix(self, tmp_path, model_id):
        p = write(tmp_path / "meta.json", f'[{{"model_id": {model_id}}}]')
        with pytest.raises(MatrixValidationError, match="is not a string"):
            load_metadata(p)

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

    def test_unknown_ids_raise_the_grid_error(self, tiny_binary):
        for lookup, kind in [
            (tiny_binary.task_index, "task"),
            (tiny_binary.model_index, "model"),
            (lambda i: tiny_binary.subset_tasks(["t1", i]), "task"),
            (lambda i: tiny_binary.subset_models([i]), "model"),
        ]:
            with pytest.raises(MatrixValidationError, match=f"^unknown {kind} id: 'zz'$"):
                lookup("zz")

    def test_derived_grids_reuse_the_id_maps(self):
        m = score_matrix(
            ["t1", "t2", "t3"], ["m1", "m2", "m3"],
            [[0.9, 0.2, np.nan], [0.1, 0.8, 0.6], [0.5, 0.5, 0.5]],
        )
        for derived in (binarize(m), impute_missing(m)):
            assert derived._task_pos is m._task_pos and derived._model_pos is m._model_pos
        assert m.subset_models(["m3", "m1"])._task_pos is m._task_pos
        assert m.subset_tasks(["t3", "t1"])._model_pos is m._model_pos
        kept, dropped = drop_degenerate_tasks(impute_missing(m))
        assert dropped == ["t3"] and kept._model_pos is m._model_pos
        assert kept.task_index("t2") == 1 and m.subset_models(["m3", "m1"]).model_index("m1") == 1
