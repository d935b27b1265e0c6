"""Suite-level composite analyses.

Composite rankings over z-scored benchmark columns, the max-min correlation
ceiling for two-benchmark composites (with a brute-force grid oracle),
Dirichlet weight fragility, leave-one-out ED deltas, exhaustive subset
search, and information density.

Rankings and champions are taken in model-id order, so exact score ties go
to the smallest id. The Dirichlet fragility test scores its R samples over N
models and k benchmarks in chunks of ``association._block_rows(F + k)``
samples for F contending rows, one product and one argmax per chunk, so a
chunk's weights and scores share the cell budget. The first chunk's P
champions prune the rows they dominate, so later chunks score F contenders:
O(B * N * k + P * N * k + R * F * k) time for a first chunk of B samples.
Each chunk draws its own weights, so the working set is one chunk whatever
R is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .association import _block_rows, _blocks, _kendall_tau_b
from .matrix_io import MatrixValidationError, _id_positions, _positions, _read_csv_grid
from .spectral import center, ed_of_matrix

__all__ = [
    "CeilingProbe",
    "FragilityReport",
    "LeaveOneOut",
    "SubsetSearchResult",
    "SuiteScores",
    "best_subset_search",
    "ceiling_oracle",
    "composite_ceiling",
    "composite_ranking",
    "composite_scores",
    "dirichlet_fragility",
    "information_density",
    "kendall_tau",
    "leave_one_out",
    "load_suite",
    "suite_ed",
]

@dataclass(frozen=True)
class SuiteScores:
    """Continuous benchmark-level scores for a population of models.

    ``table`` is models x benchmarks; the CSV layout on disk has benchmarks
    as rows (same grid convention as per-instance matrices).
    """

    model_ids: tuple[str, ...]
    benchmark_ids: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        self._adopt(np.array(self.table, dtype=float, order="C"))

    @classmethod
    def _owning(
        cls, model_ids, benchmark_ids, table: np.ndarray, model_pos=None, benchmark_pos=None
    ) -> "SuiteScores":
        """A suite over a C-order float64 table the package has just gathered,
        kept without copying; tables from callers go through the
        constructor, which copies them once. Given id maps (a parent
        suite's or the loader's) are kept as they are."""
        s = cls.__new__(cls)
        object.__setattr__(s, "model_ids", model_ids)
        object.__setattr__(s, "benchmark_ids", benchmark_ids)
        s._adopt(table, model_pos, benchmark_pos)
        return s

    def _adopt(self, table: np.ndarray, model_pos=None, benchmark_pos=None) -> None:
        """Validate, freeze and keep ``table``, then build the id maps not given."""
        if table.ndim != 2:
            raise ValueError("suite scores must be a 2-D models x benchmarks table")
        n, k = table.shape
        if k < 1:
            raise ValueError("a suite needs at least one benchmark")
        if len(self.model_ids) != n or len(self.benchmark_ids) != k:
            raise ValueError("id lists must match the score table shape")
        if not np.all(np.isfinite(table)):
            raise ValueError("suite scores must be finite (preprocess missing cells)")
        table.flags.writeable = False
        # id -> position lookups for the subset methods; not dataclass fields
        model_pos = model_pos or _id_positions(self.model_ids, "model")
        benchmark_pos = benchmark_pos or _id_positions(self.benchmark_ids, "benchmark")
        object.__setattr__(self, "_model_pos", model_pos)
        object.__setattr__(self, "_benchmark_pos", benchmark_pos)
        object.__setattr__(self, "model_ids", tuple(self.model_ids))
        object.__setattr__(self, "benchmark_ids", tuple(self.benchmark_ids))
        object.__setattr__(self, "table", table)

    @property
    def n_models(self) -> int:
        return self.table.shape[0]

    @property
    def n_benchmarks(self) -> int:
        return self.table.shape[1]

    def benchmark_table(self) -> np.ndarray:
        """Benchmarks-as-rows (k x N): the read-only view ``table.T``."""
        return self.table.T

    def model_positions(self, model_ids) -> list[int]:
        """Row positions of ``model_ids``; ``MatrixValidationError`` names an unknown id."""
        return _positions(self._model_pos, model_ids, "model")

    def subset_benchmarks(self, benchmark_ids) -> "SuiteScores":
        idx = _positions(self._benchmark_pos, benchmark_ids, "benchmark")
        return SuiteScores._owning(
            self.model_ids,
            tuple(self.benchmark_ids[i] for i in idx),
            np.take(self.table, idx, axis=1),
            self._model_pos,
        )

    def subset_models(self, model_ids) -> "SuiteScores":
        idx = self.model_positions(model_ids)
        return SuiteScores._owning(
            tuple(self.model_ids[i] for i in idx), self.benchmark_ids, self.table[idx],
            benchmark_pos=self._benchmark_pos,
        )


def load_suite(path, min_benchmarks: int = 2) -> SuiteScores:
    """Load suite scores from CSV with benchmarks as rows; no cell may be empty."""
    _, bench_ids, model_ids, values, missing, linenos = _read_csv_grid(
        path, "benchmark", "model"
    )
    model_pos = _id_positions(model_ids, "model", path, [1] * len(model_ids))
    bench_pos = _id_positions(bench_ids, "benchmark", path, linenos)
    if missing.any():
        r, c = np.argwhere(missing)[0]
        raise MatrixValidationError(
            f"{path}:{linenos[r]}: missing score for benchmark "
            f"{bench_ids[r]!r}, model {model_ids[c]!r}"
        )
    if len(bench_ids) < min_benchmarks:
        raise MatrixValidationError(
            f"{path}: needs at least {min_benchmarks} benchmark row(s)"
        )
    return SuiteScores._owning(
        tuple(model_ids), tuple(bench_ids), np.array(values.T, order="C"), model_pos, bench_pos
    )


def _zscore_columns(table: np.ndarray, benchmark_ids) -> np.ndarray:
    # column by column, so any column subset of a suite's z equals the z of
    # that sub-suite bit for bit; a constant benchmark centers to exact
    # zeros, so its std is exactly 0
    z = center(np.ascontiguousarray(table), "model")
    std = np.sqrt((z * z).sum(axis=0) / z.shape[0])
    if not std.all():
        raise ValueError(f"benchmark {benchmark_ids[int(np.argmin(std))]!r} has zero variance")
    z /= std
    return z


def suite_ed(s: SuiteScores) -> float:
    """ED of the standardized benchmarks x models table."""
    z = _zscore_columns(s.table, s.benchmark_ids)
    return ed_of_matrix(np.ascontiguousarray(z.T), scheme="task")


def composite_scores(s: SuiteScores, weights) -> np.ndarray:
    """Weighted sum of z-scored benchmark columns, one score per model."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (s.n_benchmarks,):
        raise ValueError("one weight per benchmark required")
    if w.min() < 0.0 or w.sum() <= 0.0:
        raise ValueError("weights must be nonnegative with positive sum")
    z = _zscore_columns(s.table, s.benchmark_ids)
    return z @ w


def _by_id(ids) -> np.ndarray:
    """Positions of ``ids`` in ascending id order."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _best_first(scores: np.ndarray, ids) -> np.ndarray:
    """Positions by descending score along the last axis, exact ties by ascending id."""
    by_id = _by_id(ids)
    return by_id[np.argsort(-scores[..., by_id], axis=-1, kind="stable")]


def _rank_positions(scores: np.ndarray, model_ids) -> np.ndarray:
    """Rank of each model (0 = best) per row of ``scores``; ties to smallest id."""
    order = _best_first(scores, model_ids)
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(order.shape[-1]), axis=-1)
    return pos


def composite_ranking(s: SuiteScores, weights) -> list[str]:
    """Model ids best-first under the weighted composite; ties break by id."""
    return [s.model_ids[i] for i in _best_first(composite_scores(s, weights), s.model_ids)]


def kendall_tau(rank_a, rank_b) -> float:
    """Tie-corrected rank agreement between two orderings over shared ids."""
    in_b = set(rank_b)
    shared = [i for i in rank_a if i in in_b]
    if len(shared) < 2:
        raise ValueError("need at least two shared ids")
    pos_a = {m: i for i, m in enumerate(rank_a)}
    pos_b = {m: i for i, m in enumerate(rank_b)}
    a = [pos_a[m] for m in shared]
    b = [pos_b[m] for m in shared]
    return float(_kendall_tau_b([a], b)[0])


def composite_ceiling(rho: float) -> float:
    """Max-min correlation any positive-weight two-score composite attains."""
    if not -1.0 < rho <= 1.0:
        raise ValueError("pairwise correlation must lie in (-1, 1]")
    return float(np.sqrt((1.0 + rho) / 2.0))


@dataclass(frozen=True)
class CeilingProbe:
    """Grid-search estimate of the composite ceiling and its argmax weight ratio."""

    value: float
    t_star: float


def ceiling_oracle(rho: float, grid: int = 10_001) -> CeilingProbe:
    """Brute-force max over weight ratios t of min(corr(c, s1), corr(c, s2)).

    The min of the two correlation branches is kinked at their crossing, so
    the default odd point count places t = 1 exactly on the log grid.
    """
    if not -1.0 < rho <= 1.0:
        raise ValueError("pairwise correlation must lie in (-1, 1]")
    t = np.logspace(-3.0, 3.0, grid)
    denom = np.sqrt(1.0 + t * t + 2.0 * t * rho)
    r1 = (1.0 + t * rho) / denom
    r2 = (t + rho) / denom
    m = np.minimum(r1, r2)
    i = int(np.argmax(m))
    return CeilingProbe(value=float(m[i]), t_star=float(t[i]))


@dataclass(frozen=True)
class FragilityReport:
    """Champion turnover under random Dirichlet benchmark weightings."""

    champion_change_rate: float
    distinct_champions: int
    alpha: float
    samples: int
    seed: int
    equal_weight_champion: str


def _contenders(zt: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Columns of ``zt`` (k x F, distinct rows in id order) no pivot dominates.

    Pivot p drops r when z_p >= z_r everywhere and either z_p > z_r
    everywhere or p has the smaller id: r then is never the first maximum
    under nonnegative weights in exact arithmetic (skyline dominance,
    Borzsonyi, Kossmann & Stocker, ICDE 2001). Per benchmark j the key
    dense_rank_j(r) * F + (F - 1 - r) breaks score ties toward the smaller
    id, so the test is key_j(p) > key_j(r) for all j: O(P * F * k) time
    and two P x F bool masks, P at most the first chunk's sample count.
    """
    k, f = zt.shape
    order = np.argsort(zt, axis=1)
    ranked = np.take_along_axis(zt, order, axis=1)
    dense = np.zeros((k, f), dtype=np.intp)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=dense[:, 1:])
    key = np.empty((k, f), dtype=np.intp)
    np.put_along_axis(key, order, dense * f, axis=1)
    key = (key + np.arange(f - 1, -1, -1)).astype(np.min_scalar_type(f * f))
    dominated = key[0, pivots, None] > key[0]
    step = np.empty_like(dominated)
    for row in key[1:]:
        dominated &= np.greater(row[pivots, None], row, out=step)
    return np.flatnonzero(~dominated.any(axis=0))


def dirichlet_fragility(
    s: SuiteScores,
    alpha: float = 1.0,
    samples: int = 10_000,
    seed: int = 0,
) -> FragilityReport:
    """How often the top model changes under symmetric Dirichlet weights.

    The champion is the smallest id among the exact score maxima. Each
    distinct z-scored row is scored once, for the smallest id that has it,
    so models with equal rows tie exactly. Samples are scored against
    those rows in id order, so the first argmax is the champion, in chunks
    of ``_block_rows(F + k)`` samples for F contending rows; later chunks
    score the first chunk's ``_contenders`` only.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    k = s.n_benchmarks
    z = _zscore_columns(s.table, s.benchmark_ids)
    by_id = _by_id(s.model_ids)
    # first occurrence of each distinct row in id order; + 0.0 turns -0.0
    # into 0.0 so that equal rows have equal bytes
    first: dict[bytes, int] = {}
    for pos, row in zip(by_id.tolist(), z[by_id] + 0.0):
        first.setdefault(row.tobytes(), pos)
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    baseline = int(np.argmax(z[reps] @ np.full(k, 1.0 / k)))
    rng = np.random.default_rng(seed)
    zt = np.ascontiguousarray(z[reps].T)
    cols = np.arange(len(reps))
    changes = 0
    won = np.zeros(len(reps), dtype=bool)
    done = 0
    while done < samples:
        # consecutive draws continue the stream of one samples x k draw
        size = min(_block_rows(len(cols) + k), samples - done)
        weights = rng.dirichlet(np.full(k, alpha), size=size)
        champions = cols[np.argmax(weights @ zt, axis=1)]
        changes += int(np.count_nonzero(champions != baseline))
        won[champions] = True
        if done == 0 and size < samples:
            cols = _contenders(zt, np.unique(champions))
            zt = np.ascontiguousarray(zt[:, cols])
        done += size
    return FragilityReport(
        champion_change_rate=changes / samples,
        distinct_champions=int(np.count_nonzero(won)),
        alpha=alpha,
        samples=samples,
        seed=seed,
        equal_weight_champion=s.model_ids[reps[baseline]],
    )


@dataclass(frozen=True)
class LeaveOneOut:
    delta_ed: float
    tau_vs_full: float


def leave_one_out(s: SuiteScores) -> dict[str, LeaveOneOut]:
    """Per-benchmark ED shift and ranking agreement when it is removed; the
    k taus come from one tau-b call, O(k^2 * N + k * N log N) in all."""
    k = s.n_benchmarks
    if k < 2:
        raise ValueError("leave-one-out needs at least two benchmarks")
    z = _zscore_columns(s.table, s.benchmark_ids)
    full_ed = ed_of_matrix(np.ascontiguousarray(z.T), scheme="task")
    scores = np.empty((k + 1, s.n_models))
    scores[k] = z @ np.ones(k)
    deltas = []
    for j in range(k):
        zr = np.delete(z, j, axis=1)
        deltas.append(full_ed - ed_of_matrix(np.ascontiguousarray(zr.T), scheme="task"))
        scores[j] = zr @ np.ones(k - 1)
    pos = _rank_positions(scores, s.model_ids)
    taus = _kendall_tau_b(pos[:k], pos[k])
    return {
        bench: LeaveOneOut(delta_ed=deltas[j], tau_vs_full=float(taus[j]))
        for j, bench in enumerate(s.benchmark_ids)
    }


@dataclass(frozen=True)
class SubsetSearchResult:
    best_ids: tuple[str, ...]
    best_tau: float
    worst_ids: tuple[str, ...]
    worst_tau: float


def best_subset_search(s: SuiteScores, size: int) -> SubsetSearchResult:
    """Exhaustive search for the benchmark subset whose equal-weight ranking
    best (and worst) reproduces the full-suite ranking; ties go to the first
    subset, each of the ``_blocks`` of subsets is scored in one tau-b call."""
    import math

    k = s.n_benchmarks
    if not 1 <= size <= k:
        raise ValueError(f"subset size must lie in [1, {k}]")
    if math.comb(k, size) > 1_000_000:
        raise ValueError("combination count exceeds the exhaustive-search budget")
    z = _zscore_columns(s.table, s.benchmark_ids)
    full_pos = _rank_positions(z @ np.ones(k), s.model_ids)
    combos = itertools.combinations(range(k), size)
    best = worst = None
    for block in _blocks(math.comb(k, size), s.n_models):
        chunk = list(itertools.islice(combos, block.stop - block.start))
        ids = [tuple(s.benchmark_ids[j] for j in c) for c in chunk]
        scores = np.stack([np.take(z, c, axis=1) @ np.ones(size) for c in chunk])
        taus = _kendall_tau_b(_rank_positions(scores, s.model_ids), full_pos)
        hi, lo = int(np.argmax(taus)), int(np.argmin(taus))
        if best is None or taus[hi] > best[1]:
            best = (ids[hi], float(taus[hi]))
        if worst is None or taus[lo] < worst[1]:
            worst = (ids[lo], float(taus[lo]))
    return SubsetSearchResult(
        best_ids=best[0], best_tau=best[1], worst_ids=worst[0], worst_tau=worst[1]
    )


def information_density(ed: float, k: int) -> float:
    """Independent signals per reported score: ED / k."""
    if k < 1:
        raise ValueError("suite size must be positive")
    return ed / k

