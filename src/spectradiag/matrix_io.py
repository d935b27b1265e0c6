"""Score-matrix loading, validation, binarization, and imputation.

Single source of truth for the preprocessing rules applied to task x model
score grids: explicit missing-value masks, strict-greater binarization,
per-model mean imputation, and degenerate-row removal.

It also owns the CSV grid format, header ``<corner>,<col_id>,...`` and one
labelled row per id: ``_read_csv_grid`` parses and rejects (with
``file:line``) every matrix, suite and ED-series file, and
``_write_csv_grid`` writes matrices, correlation matrices and ED series.
The writer runs ``csv.writer`` only for the header and the row id fields and
joins each row's value cells itself, so its floor is one ``repr`` per cell,
about 1 us for a 17-digit value.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

MISSING_WARN_FRACTION = 0.05

__all__ = [
    "BinarizationPolicy",
    "ModelMeta",
    "ScoreMatrix",
    "binarize",
    "drop_degenerate_tasks",
    "impute_missing",
    "load_matrix",
    "load_metadata",
    "save_matrix",
    "score_matrix",
]


class MatrixValidationError(ValueError):
    """Raised when an input grid violates the score-matrix contract."""


@dataclass(frozen=True)
class ScoreMatrix:
    """A tasks x models score grid with an explicit missing mask.

    ``values`` holds NaN at masked cells so accidental use of missing scores
    fails loudly; the ``missing`` mask is authoritative. Both are private and
    read-only: the constructor copies the caller's arrays once.
    """

    task_ids: tuple[str, ...]
    model_ids: tuple[str, ...]
    values: np.ndarray
    missing: np.ndarray
    kind: str  # "binary" | "continuous"

    def __post_init__(self) -> None:
        self._adopt(np.array(self.values, dtype=float), np.array(self.missing, dtype=bool),
                    self.kind, fold=False)

    @classmethod
    def _owning(cls, task_ids, model_ids, values: np.ndarray, missing: np.ndarray, kind=None,
                task_pos=None, model_pos=None):
        """A matrix over a float64 grid and bool mask the package has just
        made, kept without copying like any id maps given; non-finite cells
        join the mask and a ``None`` kind is inferred. Arrays from callers go
        through ``score_matrix`` or the constructor, which copy them once."""
        m = cls.__new__(cls)
        object.__setattr__(m, "task_ids", task_ids)
        object.__setattr__(m, "model_ids", model_ids)
        m._adopt(values, missing, kind, fold=True, task_pos=task_pos, model_pos=model_pos)
        return m

    def _adopt(self, values: np.ndarray, missing: np.ndarray, kind, fold: bool,
               task_pos=None, model_pos=None) -> None:
        """Validate, write NaN at the missing cells, freeze and keep both arrays.

        ``fold`` (the internal builders) adds non-finite cells to the mask and
        infers a ``None`` kind; the public constructor rejects both. Each
        check is one pass over the grid. An id map not given is built here.
        """
        task_ids = tuple(str(t) for t in self.task_ids)
        model_ids = tuple(str(m) for m in self.model_ids)
        if values.ndim != 2:
            raise MatrixValidationError("values must be a 2-D grid")
        t, n = values.shape
        if t < 1:
            raise MatrixValidationError("need at least one task row")
        if n < 2:
            raise MatrixValidationError("need at least two model columns")
        if len(task_ids) != t or len(model_ids) != n:
            raise MatrixValidationError("id lists must match the grid shape")
        task_pos = task_pos or _id_positions(task_ids, "task")
        model_pos = model_pos or _id_positions(model_ids, "model")
        if missing.shape != values.shape:
            raise MatrixValidationError("missing mask must match the grid shape")
        if fold:
            missing |= ~np.isfinite(values)
        elif not (np.isfinite(values) | missing).all():
            raise MatrixValidationError("non-missing cells must be finite")
        values[missing] = np.nan
        if _outside_unit(values) is not None:
            raise MatrixValidationError("scores must lie in [0, 1]")
        if kind not in ("binary", "continuous") and not (fold and kind is None):
            raise MatrixValidationError(f"unknown kind: {kind!r}")
        if kind != "continuous":
            zero_one = _zero_one(values, missing)
            if kind is None:
                kind = "binary" if zero_one and not missing.all() else "continuous"
            elif not zero_one:
                raise MatrixValidationError("binary matrix contains non-0/1 cells")
        frac = float(missing.mean())
        if frac > MISSING_WARN_FRACTION:
            warnings.warn(
                f"missing fraction {frac:.3f} exceeds {MISSING_WARN_FRACTION}",
                stacklevel=4,
            )
        values.flags.writeable = False
        missing.flags.writeable = False
        object.__setattr__(self, "task_ids", task_ids)
        object.__setattr__(self, "model_ids", model_ids)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "kind", kind)
        # id -> position lookups for task_index/model_index; not dataclass fields
        object.__setattr__(self, "_task_pos", task_pos)
        object.__setattr__(self, "_model_pos", model_pos)

    @property
    def n_tasks(self) -> int:
        return self.values.shape[0]

    @property
    def n_models(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def missing_fraction(self) -> float:
        return float(self.missing.mean())

    @property
    def is_complete(self) -> bool:
        return not bool(self.missing.any())

    def dense_values(self) -> np.ndarray:
        """The read-only grid itself, not a copy; requires a complete
        (imputed) matrix. Callers that need to write take their own copy."""
        if not self.is_complete:
            raise MatrixValidationError("matrix still has missing cells; impute first")
        return self.values

    def task_index(self, task_id: str) -> int:
        return _positions(self._task_pos, [task_id], "task")[0]

    def model_index(self, model_id: str) -> int:
        return _positions(self._model_pos, [model_id], "model")[0]

    def subset_tasks(self, task_ids) -> "ScoreMatrix":
        idx = _positions(self._task_pos, task_ids, "task")
        return ScoreMatrix._owning(
            [self.task_ids[i] for i in idx],
            self.model_ids,
            self.values[idx],
            self.missing[idx],
            model_pos=self._model_pos,
        )

    def subset_models(self, model_ids) -> "ScoreMatrix":
        idx = _positions(self._model_pos, model_ids, "model")
        return ScoreMatrix._owning(
            self.task_ids,
            [self.model_ids[j] for j in idx],
            self.values[:, idx],
            self.missing[:, idx],
            task_pos=self._task_pos,
        )


def _zero_one(values: np.ndarray, missing: np.ndarray) -> bool:
    """Whether every observed cell is exactly 0 or 1."""
    return bool(((values == 0.0) | (values == 1.0) | missing).all())


def _outside_unit(values: np.ndarray):
    """``(row, column)`` of the first cell outside [0, 1] in row-major
    order, or None; NaN cells are inside. One min and one max pass when
    every cell is inside."""
    if values.size and (
        np.fmin.reduce(values, axis=None) < 0.0 or np.fmax.reduce(values, axis=None) > 1.0
    ):
        r, c = np.argwhere((values < 0.0) | (values > 1.0))[0]
        return int(r), int(c)
    return None


def _id_positions(ids, kind: str, path=None, lines=None) -> dict:
    """id -> position; the first repeated id raises ``duplicate {kind} id: 'x'``,
    after ``{path}:{lines[p]}: `` (or ``{path}: ``) when read from a file."""
    pos: dict = {}
    for p, i in enumerate(ids):
        if pos.setdefault(i, p) != p:
            where = "" if path is None else f"{path}: " if lines is None else f"{path}:{lines[p]}: "
            raise MatrixValidationError(f"{where}duplicate {kind} id: {i!r}")
    return pos


def _positions(pos: dict, ids, kind: str, path=None) -> list[int]:
    """Positions of ``ids`` in ``pos``; the first miss raises ``unknown {kind}
    id: 'x'``, after ``{path}: `` when read from a file."""
    try:
        return [pos[i] for i in ids]
    except KeyError as exc:
        where = "" if path is None else f"{path}: "
        raise MatrixValidationError(f"{where}unknown {kind} id: {exc.args[0]!r}") from None


def score_matrix(task_ids, model_ids, values, missing=None, kind=None) -> ScoreMatrix:
    """Build a validated ScoreMatrix from copies of the caller's arrays;
    infers the binary/continuous tag when ``kind`` is None.

    NaN cells in ``values`` are folded into the missing mask.
    """
    values = np.array(values, dtype=float)
    missing = np.zeros(values.shape, bool) if missing is None else np.array(missing, dtype=bool)
    return ScoreMatrix._owning(tuple(task_ids), tuple(model_ids), values, missing, kind)


@dataclass(frozen=True)
class BinarizationPolicy:
    """Strict-greater pass/fail thresholding; idempotent on binary input."""

    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise MatrixValidationError("threshold must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class ModelMeta:
    """Per-model covariates used by stratified and partial analyses."""

    model_id: str
    log_param_count: float | None = None
    date: datetime.date | None = None
    family: str | None = None
    labels: dict[str, bool] = field(default_factory=dict)


def load_matrix(path, format: str = "csv") -> ScoreMatrix:
    """Load a score matrix from disk.

    CSV layout: UTF-8, header ``task_id,<model_id_1>,...``, one row per task,
    empty field = missing (see ``_read_csv_grid`` for the rejection rules).
    JSON layout: object with ``task_ids``, ``model_ids`` and a row-major
    ``values`` list of numbers and nulls (null = missing); any other cell,
    a boolean included, is rejected.
    """
    if format == "csv":
        _, task_ids, model_ids, values, missing, lines = _read_csv_grid(path, "task", "model")
        if len(model_ids) < 2:
            raise MatrixValidationError(f"{path}:1: header needs at least two model columns")
    elif format == "json":
        task_ids, model_ids, values, missing = _read_json_matrix(path)
        lines = None
    else:
        raise MatrixValidationError(f"unknown matrix format: {format!r}")
    model_pos = _id_positions(model_ids, "model", path, lines and [1] * len(model_ids))
    task_pos = _id_positions(task_ids, "task", path, lines)
    cell = _outside_unit(values)
    if cell is not None:
        r, c = cell
        text = f"cell {float(values[r, c])!r} outside [0, 1]"
        raise MatrixValidationError(
            f"{path}:{lines[r]}: {text} for task {task_ids[r]!r}, model {model_ids[c]!r}"
            if lines
            else f"{path}: {text} at values index [{r}, {c}]"
        )
    return ScoreMatrix._owning(task_ids, model_ids, values, missing, None, task_pos, model_pos)


def _read_csv_grid(path, row_kind: str, col_kind: str):
    """Parse header ``<corner>,<col_id>,...`` and one ``<row_id>,<value>,...``
    row per id; blank lines are skipped and an empty cell is missing.

    Returns ``(corner, row_ids, col_ids, values, missing, linenos)``, NaN at
    the missing cells. An empty file, a header without value columns, no
    rows, a row with the wrong field count and a value cell that breaks the
    ``_parse_cells`` rule or is non-finite raise with ``file:line``. Ids are
    not checked here: the caller puts them through ``_id_positions`` with
    ``linenos`` (the header is line 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise MatrixValidationError(f"{path}:1: empty file") from None
        if len(header) < 2:
            raise MatrixValidationError(f"{path}:1: header needs at least one {col_kind} column")
        col_ids = header[1:]
        # Each parsed row goes straight into one grid and mask, grown by
        # doubling and trimmed at the end. ndarray.resize reallocates their
        # buffers, which no view shares (hence refcheck=False), so no
        # per-cell Python float outlives its row and no second grid is made.
        values = np.empty((1, len(col_ids)))
        missing = np.zeros((1, len(col_ids)), dtype=bool)
        row_ids, linenos = [], []
        for lineno, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise MatrixValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            row_id = row[0].strip()
            vals, gaps, bad = _parse_cells(row[1:])
            if bad is not None:
                col, text = bad
                raise MatrixValidationError(
                    f"{path}:{lineno}: non-numeric cell {text!r} for "
                    f"{row_kind} {row_id!r}, {col_kind} {col_ids[col]!r}"
                )
            r = len(row_ids)
            if r == len(values):
                values.resize((2 * r, len(col_ids)), refcheck=False)
                missing.resize((2 * r, len(col_ids)), refcheck=False)
            values[r] = vals
            missing[r, gaps] = True
            row_ids.append(row_id)
            linenos.append(lineno)
    if not row_ids:
        raise MatrixValidationError(f"{path}:1: no {row_kind} rows after the header")
    values.resize((len(row_ids), len(col_ids)), refcheck=False)
    missing.resize((len(row_ids), len(col_ids)), refcheck=False)
    ok = np.isfinite(values) | missing
    if not ok.all():
        r, c = np.argwhere(~ok)[0]
        raise MatrixValidationError(
            f"{path}:{linenos[r]}: non-finite cell {float(values[r, c])!r} for "
            f"{row_kind} {row_ids[r]!r}, {col_kind} {col_ids[c]!r}"
        )
    return header[0], row_ids, col_ids, values, missing, linenos


def _parse_cells(cells: list[str]):
    """``(values, gaps, bad)`` of a row's CSV value cells, the cell rule of
    every grid and series file.

    ``values`` holds each cell's float, NaN at the empty cells, whose
    positions are ``gaps``. A value cell is ASCII numeric syntax: ``float()``
    would also read ``_`` between digits and non-ASCII digits and spaces, so
    a row whose joined cells hold either is scanned for the first such cell,
    and only the cells before it are parsed. ``bad`` is ``(position, text)``
    of the first cell that breaks the rule, and then ``values`` stops
    before it; otherwise ``bad`` is None.
    """
    text = "".join(cells)
    if not text.isascii() or "_" in text:
        stop = next(c for c, v in enumerate(cells) if not v.isascii() or "_" in v)
        vals, gaps, bad = _parse_cells(cells[:stop])
        return vals, gaps, bad or (stop, cells[stop])
    vals, gaps = [], []
    for col, cell in enumerate(cells):
        try:
            vals.append(float(cell))
        except ValueError:
            if cell.strip():
                return vals, gaps, (col, cell.strip())
            gaps.append(col)
            vals.append(np.nan)
    return vals, gaps, None


def _write_csv_grid(path, corner: str, row_ids, col_ids, values) -> None:
    """Write the grid layout ``_read_csv_grid`` reads: NaN as an empty field,
    every other value as ``repr(float)``.

    ``csv.writer`` formats and quotes only the header and each row's id
    field, so ids keep its quoting and its text for non-``str`` ids. The
    value cells of a row are one ``",".join``: no ``repr`` of a float holds
    a character that needs quoting. The cost is T*N ``repr`` calls, about
    1 us each for a 17-digit value and the floor of this text format, with
    the N strings of one row alive at a time. A grid with rows but no value
    columns is rejected, as the reader would reject the file.
    """
    values = np.asarray(values, dtype=float)
    if len(values) and values.shape[1] == 0:
        raise MatrixValidationError("a CSV grid needs at least one value column")
    id_buf = io.StringIO()
    id_writer = csv.writer(id_buf)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([corner, *col_ids])
        for row_id, row in zip(row_ids, values):
            id_buf.seek(0)
            id_buf.truncate()
            # "<id>,\r\n": the id field as csv.writer writes it, then a comma
            id_writer.writerow([row_id, ""])
            cells = ",".join(["" if v != v else repr(v) for v in row.tolist()])
            fh.write(id_buf.getvalue()[:-2] + cells + "\r\n")


def _read_json_matrix(path):
    """``(task_ids, model_ids, values, missing)`` of a JSON matrix file; the
    parsed lists are freed on return."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        task_ids = payload["task_ids"]
        model_ids = payload["model_ids"]
        raw = payload["values"]
    except (KeyError, TypeError):
        raise MatrixValidationError(
            f"{path}: expected keys task_ids, model_ids, values"
        ) from None
    for key, ids in (("task_ids", task_ids), ("model_ids", model_ids)):
        if not isinstance(ids, list):
            raise MatrixValidationError(f"{path}: {key} must be a JSON array")
    values, missing = _json_grid(path, raw)
    # a matrix keeps its ids as strings, so its id maps are built over these
    return [str(t) for t in task_ids], [str(m) for m in model_ids], values, missing


def _json_grid(path, raw) -> tuple[np.ndarray, np.ndarray]:
    """The float64 grid and missing mask of a JSON ``values`` list.

    A grid is a non-empty list of equal-length lists whose cells are not all
    lists of one length (the grids ``np.array(raw, dtype=object)`` makes 2-D).
    Errors come in this order: not a grid, the first non-number cell in
    row-major order, the first integer beyond float range, the first
    non-finite cell. Each row is written straight into the preallocated
    arrays, so the extra memory is the grid and its mask.
    """
    width = len(raw[0]) if isinstance(raw, list) and raw and isinstance(raw[0], list) else -1
    rectangular = width >= 0 and all(isinstance(row, list) and len(row) == width for row in raw)
    if rectangular and width:
        # cells that are all lists of one length would make a third dimension
        depth = len(raw[0][0]) if isinstance(raw[0][0], list) else -1
        rectangular = depth < 0 or not all(
            isinstance(cell, list) and len(cell) == depth for row in raw for cell in row
        )
    if not rectangular:
        raise MatrixValidationError(
            f"{path}: values must be a rectangular grid of numbers and nulls"
        )
    values = np.empty((len(raw), width))
    missing = np.zeros((len(raw), width), dtype=bool)
    overflow = None
    for i, row in enumerate(raw):
        # bool is an int subclass and a string may parse as a float: only
        # JSON numbers and null are cells
        for j, cell in enumerate(row):
            if cell is not None and type(cell) not in (int, float):
                raise MatrixValidationError(
                    f"{path}: non-numeric cell {cell!r} at values index [{i}, {j}]"
                )
        gaps = [j for j, cell in enumerate(row) if cell is None]
        if gaps:
            missing[i, gaps] = True
            row = [np.nan if cell is None else cell for cell in row]
        try:
            values[i] = row
        except OverflowError:
            # a JSON integer beyond float range; type errors in later rows
            # still come first
            if overflow is None:
                overflow = [i, next(j for j, cell in enumerate(row) if _beyond_float(cell))]
    if overflow is not None:
        raise MatrixValidationError(
            f"{path}: integer cell out of float range at values index {overflow}"
        )
    bad = np.argwhere(~(np.isfinite(values) | missing))
    if bad.size:
        raise MatrixValidationError(f"{path}: non-finite cell at values index {bad[0].tolist()}")
    return values, missing


def _beyond_float(cell) -> bool:
    try:
        float(cell)
    except OverflowError:
        return True
    return False


def save_matrix(m: ScoreMatrix, path, format: str = "csv") -> None:
    """Write a matrix in the standard layout; round-trips exactly."""
    if format == "csv":
        _write_csv_grid(path, "task_id", m.task_ids, m.model_ids, m.values)
        return
    if format == "json":
        # One json.dumps per row: the C encoder without a whole-grid string.
        # The bytes equal json.dump of {"task_ids", "model_ids", "values"}.
        ids = json.dumps({"task_ids": list(m.task_ids), "model_ids": list(m.model_ids)})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ids[:-1] + ', "values": [')
            for i, row in enumerate(m.values):
                # missing cells hold NaN: v != v exactly there
                cells = [None if v != v else v for v in row.tolist()]
                fh.write((", " if i else "") + json.dumps(cells))
            fh.write("]}")
        return
    raise MatrixValidationError(f"unknown matrix format: {format!r}")


def load_metadata(path, matrix: ScoreMatrix | None = None) -> list[ModelMeta]:
    """Load the companion metadata JSON (array of per-model objects), one
    record per string ``model_id``."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise MatrixValidationError(f"{path}: metadata must be a JSON array")
    metas: list[ModelMeta] = []
    for index, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise MatrixValidationError(f"{path}: metadata record {index} is not an object")
        if not isinstance(rec.get("labels") or {}, dict):
            raise MatrixValidationError(
                f"{path}: metadata record {index} has labels that are not an object"
            )
        model_id = rec.get("model_id")
        if not model_id:
            raise MatrixValidationError(f"{path}: metadata record without model_id")
        if type(model_id) is not str:
            raise MatrixValidationError(f"{path}: metadata model {model_id!r} is not a string")
        if matrix is not None:
            _positions(matrix._model_pos, [model_id], "model", path)
        date = rec.get("date")
        try:
            parsed_date = datetime.date.fromisoformat(date) if date else None
        except ValueError:
            raise MatrixValidationError(
                f"{path}: model {model_id!r} has a non-ISO date {date!r}"
            ) from None
        metas.append(
            ModelMeta(
                model_id=model_id,
                log_param_count=rec.get("log_param_count"),
                date=parsed_date,
                family=rec.get("family"),
                labels={str(k): bool(v) for k, v in (rec.get("labels") or {}).items()},
            )
        )
    _id_positions([meta.model_id for meta in metas], "model", path)
    return metas


def binarize(m: ScoreMatrix, policy: BinarizationPolicy | None = None) -> ScoreMatrix:
    """Code scores above the threshold as pass (1), the rest as fail (0)."""
    policy = policy or BinarizationPolicy()
    # NaN compares False; _adopt writes NaN back at the missing cells
    values = (m.values > policy.threshold).astype(float)
    return ScoreMatrix._owning(m.task_ids, m.model_ids, values, m.missing.copy(), "binary",
                               m._task_pos, m._model_pos)


def impute_missing(m: ScoreMatrix) -> ScoreMatrix:
    """Replace each missing cell by that model's mean over its observed tasks."""
    if m.is_complete:
        return m
    values = np.array(m.values, copy=True)
    for j, model in enumerate(m.model_ids):
        col_missing = m.missing[:, j]
        if col_missing.all():
            raise MatrixValidationError(f"model {model!r} has no observed scores")
        if col_missing.any():
            values[col_missing, j] = values[~col_missing, j].mean()
    return ScoreMatrix._owning(m.task_ids, m.model_ids, values, np.zeros_like(m.missing), None,
                               m._task_pos, m._model_pos)


def drop_degenerate_tasks(m: ScoreMatrix) -> tuple[ScoreMatrix, list[str]]:
    """Remove zero-variance task rows; returns the surviving matrix and drop list."""
    values = m.dense_values()
    keep = ~np.all(values == values[:, :1], axis=1)
    dropped = [t for t, k in zip(m.task_ids, keep) if not k]
    if not keep.any():
        raise MatrixValidationError("all task rows are degenerate")
    kept = ScoreMatrix._owning(
        [t for t, k in zip(m.task_ids, keep) if k],
        m.model_ids,
        values[keep],
        np.zeros((int(keep.sum()), m.n_models), dtype=bool),
        model_pos=m._model_pos,
    )
    return kept, dropped
