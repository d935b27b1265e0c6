"""Score-matrix loading, validation, binarization, and imputation.

Single source of truth for the preprocessing rules applied to task x model
score grids: explicit missing-value masks, strict-greater binarization,
per-model mean imputation, and degenerate-row removal.
"""

from __future__ import annotations

import csv
import datetime
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


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScoreMatrix:
    """A tasks x models score grid with an explicit missing mask.

    ``values`` holds NaN at masked cells so accidental use of missing scores
    fails loudly; the ``missing`` mask is authoritative.
    """

    task_ids: tuple[str, ...]
    model_ids: tuple[str, ...]
    values: np.ndarray
    missing: np.ndarray
    kind: str  # "binary" | "continuous"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        missing = np.asarray(self.missing, dtype=bool)
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
        positions = []
        for name, ids in (("task", task_ids), ("model", model_ids)):
            seen: dict[str, int] = {}
            for pos, i in enumerate(ids):
                if i in seen:
                    raise MatrixValidationError(f"duplicate {name} id: {i!r}")
                seen[i] = pos
            positions.append(seen)
        if missing.shape != values.shape:
            raise MatrixValidationError("missing mask must match the grid shape")
        present = values[~missing]
        if not np.all(np.isfinite(present)):
            raise MatrixValidationError("non-missing cells must be finite")
        if present.size and (present.min() < 0.0 or present.max() > 1.0):
            raise MatrixValidationError("scores must lie in [0, 1]")
        if self.kind not in ("binary", "continuous"):
            raise MatrixValidationError(f"unknown kind: {self.kind!r}")
        if self.kind == "binary" and present.size:
            if not np.all((present == 0.0) | (present == 1.0)):
                raise MatrixValidationError("binary matrix contains non-0/1 cells")
        frac = float(missing.mean())
        if frac > MISSING_WARN_FRACTION:
            warnings.warn(
                f"missing fraction {frac:.3f} exceeds {MISSING_WARN_FRACTION}",
                stacklevel=3,
            )
        values = values.copy()
        values[missing] = np.nan
        object.__setattr__(self, "task_ids", task_ids)
        object.__setattr__(self, "model_ids", model_ids)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "missing", _readonly(missing))
        # id -> position lookups for task_index/model_index; not dataclass fields
        object.__setattr__(self, "_task_pos", positions[0])
        object.__setattr__(self, "_model_pos", positions[1])

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
        """Writable copy of the grid; requires a complete (imputed) matrix."""
        if not self.is_complete:
            raise MatrixValidationError("matrix still has missing cells; impute first")
        return np.array(self.values, copy=True)

    def task_index(self, task_id: str) -> int:
        try:
            return self._task_pos[task_id]
        except KeyError:
            raise KeyError(f"unknown task id: {task_id!r}") from None

    def model_index(self, model_id: str) -> int:
        try:
            return self._model_pos[model_id]
        except KeyError:
            raise KeyError(f"unknown model id: {model_id!r}") from None

    def subset_tasks(self, task_ids) -> "ScoreMatrix":
        idx = [self.task_index(t) for t in task_ids]
        return score_matrix(
            [self.task_ids[i] for i in idx],
            self.model_ids,
            self.values[idx],
            self.missing[idx],
        )

    def subset_models(self, model_ids) -> "ScoreMatrix":
        idx = [self.model_index(m) for m in model_ids]
        return score_matrix(
            self.task_ids,
            [self.model_ids[j] for j in idx],
            self.values[:, idx],
            self.missing[:, idx],
        )


def _infer_kind(values: np.ndarray, missing: np.ndarray) -> str:
    present = values[~missing]
    if present.size and np.all((present == 0.0) | (present == 1.0)):
        return "binary"
    return "continuous"


def score_matrix(task_ids, model_ids, values, missing=None, kind=None) -> ScoreMatrix:
    """Build a validated ScoreMatrix; infers the binary/continuous tag.

    NaN cells in ``values`` are folded into the missing mask.
    """
    values = np.asarray(values, dtype=float)
    nan_mask = ~np.isfinite(values)
    if missing is None:
        missing = nan_mask
    else:
        missing = np.asarray(missing, dtype=bool) | nan_mask
    if kind is None:
        kind = _infer_kind(values, missing)
    return ScoreMatrix(tuple(task_ids), tuple(model_ids), values, missing, kind)


@dataclass(frozen=True)
class BinarizationPolicy:
    """Strict-greater pass/fail thresholding; idempotent on binary input."""

    threshold: float = 0.5
    rule: str = "strict-greater"

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise MatrixValidationError("threshold must lie strictly inside (0, 1)")
        if self.rule != "strict-greater":
            raise MatrixValidationError(f"unsupported binarization rule: {self.rule!r}")


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
    empty field = missing. JSON layout: object with ``task_ids``, ``model_ids``
    and a row-major ``values`` list (null = missing).
    """
    if format == "csv":
        return _load_csv(path)
    if format == "json":
        return _load_json(path)
    raise MatrixValidationError(f"unknown matrix format: {format!r}")


def _load_csv(path) -> ScoreMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MatrixValidationError(f"{path}: empty file") from None
        if len(header) < 3:
            raise MatrixValidationError(f"{path}: header needs at least two model columns")
        model_ids = [h.strip() for h in header[1:]]
        task_ids: list[str] = []
        linenos: list[int] = []
        rows: list[list[float]] = []
        mask: list[list[bool]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise MatrixValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            task_id = row[0].strip()
            vals: list[float] = []
            miss: list[bool] = []
            for col, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    vals.append(np.nan)
                    miss.append(True)
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise MatrixValidationError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} for task "
                        f"{task_id!r}, model {model_ids[col]!r}"
                    ) from None
                miss.append(False)
            task_ids.append(task_id)
            linenos.append(lineno)
            rows.append(vals)
            mask.append(miss)
    if not rows:
        raise MatrixValidationError(f"{path}: no task rows")
    values, missing = np.array(rows), np.array(mask)
    bad = np.argwhere(~(np.isfinite(values) | missing))
    if bad.size:
        r, c = bad[0]
        raise MatrixValidationError(
            f"{path}:{linenos[r]}: non-finite cell {float(values[r, c])!r} for task "
            f"{task_ids[r]!r}, model {model_ids[c]!r}"
        )
    return score_matrix(task_ids, model_ids, values, missing)


def _load_json(path) -> ScoreMatrix:
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
    try:
        cells = np.array(raw, dtype=object)
        missing = np.equal(cells, None)
        values = np.where(missing, np.nan, cells).astype(float)
    except (TypeError, ValueError):
        raise MatrixValidationError(
            f"{path}: values must be a rectangular grid of numbers and nulls"
        ) from None
    bad = np.argwhere(~(np.isfinite(values) | missing))
    if bad.size:
        raise MatrixValidationError(f"{path}: non-finite cell at values index {bad[0].tolist()}")
    return score_matrix(task_ids, model_ids, values, missing)


def save_matrix(m: ScoreMatrix, path, format: str = "csv") -> None:
    """Write a matrix in the standard layout; round-trips exactly."""
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task_id", *m.model_ids])
            for i, task in enumerate(m.task_ids):
                row: list[str] = [task]
                for j in range(m.n_models):
                    row.append("" if m.missing[i, j] else repr(float(m.values[i, j])))
                writer.writerow(row)
        return
    if format == "json":
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
        return
    raise MatrixValidationError(f"unknown matrix format: {format!r}")


def load_metadata(path, matrix: ScoreMatrix | None = None) -> list[ModelMeta]:
    """Load the companion metadata JSON (array of per-model objects)."""
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
        if matrix is not None and model_id not in matrix.model_ids:
            raise MatrixValidationError(
                f"{path}: metadata model {model_id!r} not present in matrix"
            )
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
    return metas


def binarize(m: ScoreMatrix, policy: BinarizationPolicy | None = None) -> ScoreMatrix:
    """Code scores above the threshold as pass (1), the rest as fail (0)."""
    policy = policy or BinarizationPolicy()
    values = np.where(m.missing, np.nan, (np.nan_to_num(m.values) > policy.threshold))
    return ScoreMatrix(m.task_ids, m.model_ids, values.astype(float), m.missing, "binary")


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
    missing = np.zeros_like(m.missing)
    return score_matrix(m.task_ids, m.model_ids, values, missing)


def drop_degenerate_tasks(m: ScoreMatrix) -> tuple[ScoreMatrix, list[str]]:
    """Remove zero-variance task rows; returns the surviving matrix and drop list."""
    values = m.dense_values()
    keep = ~np.all(values == values[:, :1], axis=1)
    dropped = [t for t, k in zip(m.task_ids, keep) if not k]
    if not keep.any():
        raise MatrixValidationError("all task rows are degenerate")
    kept = score_matrix(
        [t for t, k in zip(m.task_ids, keep) if k],
        m.model_ids,
        values[keep],
        np.zeros((int(keep.sum()), m.n_models), dtype=bool),
    )
    return kept, dropped
