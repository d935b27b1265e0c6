"""Suite-level composite analyses.

Composite rankings over z-scored benchmark columns, the max-min correlation
ceiling for two-benchmark composites (with a brute-force grid oracle),
Dirichlet weight fragility, leave-one-out ED deltas, exhaustive subset
search, and information density.

Rankings and champions are taken in model-id order, so exact score ties go
to the smallest id. The Dirichlet fragility test scores its R samples over N
models and k benchmarks in chunks of at most ``FRAGILITY_CHUNK`` samples, one
product and one argmax per chunk: O(R * N * k) time and an O(1024 * N) score
block instead of the full N x R one.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.stats import kendalltau

from .spectral import ed_of_matrix

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

# Dirichlet samples scored per matrix product in dirichlet_fragility.
FRAGILITY_CHUNK = 1024


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
        table = np.asarray(self.table, dtype=float)
        n, k = table.shape
        if k < 1:
            raise ValueError("a suite needs at least one benchmark")
        if len(self.model_ids) != n or len(self.benchmark_ids) != k:
            raise ValueError("id lists must match the score table shape")
        if not np.all(np.isfinite(table)):
            raise ValueError("suite scores must be finite (preprocess missing cells)")
        for name, ids in (("model", self.model_ids), ("benchmark", self.benchmark_ids)):
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate {name} ids")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "model_ids", tuple(self.model_ids))
        object.__setattr__(self, "benchmark_ids", tuple(self.benchmark_ids))
        object.__setattr__(self, "table", table)
        # id -> position lookups for the subset methods; not dataclass fields
        object.__setattr__(self, "_model_pos", {m: i for i, m in enumerate(self.model_ids)})
        object.__setattr__(
            self, "_benchmark_pos", {b: i for i, b in enumerate(self.benchmark_ids)}
        )

    @property
    def n_models(self) -> int:
        return self.table.shape[0]

    @property
    def n_benchmarks(self) -> int:
        return self.table.shape[1]

    def benchmark_table(self) -> np.ndarray:
        """Benchmarks-as-rows view (k x N), writable copy."""
        return np.array(self.table.T, copy=True)

    def model_positions(self, model_ids) -> list[int]:
        """Row positions of ``model_ids``; ``ValueError`` names an unknown id."""
        return _positions(self._model_pos, model_ids, "model")

    def subset_benchmarks(self, benchmark_ids) -> "SuiteScores":
        idx = _positions(self._benchmark_pos, benchmark_ids, "benchmark")
        return SuiteScores(
            self.model_ids,
            tuple(self.benchmark_ids[i] for i in idx),
            self.table[:, idx],
        )

    def subset_models(self, model_ids) -> "SuiteScores":
        idx = self.model_positions(model_ids)
        return SuiteScores(
            tuple(self.model_ids[i] for i in idx), self.benchmark_ids, self.table[idx]
        )


def _positions(pos: dict, ids, kind: str) -> list[int]:
    try:
        return [pos[i] for i in ids]
    except KeyError as exc:
        raise ValueError(f"unknown {kind} id: {exc.args[0]!r}") from None


def load_suite(path, min_benchmarks: int = 2) -> SuiteScores:
    """Load suite scores from CSV with benchmarks as rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        model_ids = [h.strip() for h in header[1:]]
        bench_ids: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            bench_ids.append(row[0].strip())
            vals = []
            for col, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    raise ValueError(
                        f"{path}:{lineno}: missing score for benchmark "
                        f"{row[0].strip()!r}, model {model_ids[col]!r}"
                    )
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric cell {cell!r}"
                    ) from None
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no benchmark rows")
    if len(rows) < min_benchmarks:
        raise ValueError(
            f"{path}: needs at least {min_benchmarks} benchmark row(s)"
        )
    return SuiteScores(tuple(model_ids), tuple(bench_ids), np.array(rows).T)


def _zscore_columns(table: np.ndarray, benchmark_ids) -> np.ndarray:
    mean = table.mean(axis=0)
    std = table.std(axis=0)
    for j, s in enumerate(std):
        if s == 0.0:
            raise ValueError(f"benchmark {benchmark_ids[j]!r} has zero variance")
    return (table - mean) / std


def suite_ed(s: SuiteScores) -> float:
    """ED of the standardized benchmarks x models table."""
    z = _zscore_columns(s.table, s.benchmark_ids)
    return ed_of_matrix(z.T, scheme="task")


def composite_scores(s: SuiteScores, weights) -> np.ndarray:
    """Weighted sum of z-scored benchmark columns, one score per model."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (s.n_benchmarks,):
        raise ValueError("one weight per benchmark required")
    if w.min() < 0.0 or w.sum() <= 0.0:
        raise ValueError("weights must be nonnegative with positive sum")
    z = _zscore_columns(s.table, s.benchmark_ids)
    return z @ w


def _by_id(model_ids) -> np.ndarray:
    """Positions of ``model_ids`` in ascending id order."""
    return np.array(sorted(range(len(model_ids)), key=model_ids.__getitem__), dtype=np.intp)


def composite_ranking(s: SuiteScores, weights) -> list[str]:
    """Model ids best-first under the weighted composite; ties break by id."""
    scores = composite_scores(s, weights)
    id_rank = np.empty(s.n_models, dtype=np.intp)
    id_rank[_by_id(s.model_ids)] = np.arange(s.n_models)
    order = np.lexsort((id_rank, -scores))
    return [s.model_ids[i] for i in order]


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
    return float(kendalltau(a, b).statistic)


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


def dirichlet_fragility(
    s: SuiteScores,
    alpha: float = 1.0,
    samples: int = 10_000,
    seed: int = 0,
) -> FragilityReport:
    """How often the top model changes under symmetric Dirichlet weights.

    The champion is the smallest id among the exact score maxima. Each
    distinct z-scored row is scored once, for the smallest id that has it,
    so models with equal rows tie exactly. Samples are scored
    ``FRAGILITY_CHUNK`` at a time against those rows in id order, so the
    first argmax of each row of scores is the champion: O(samples * N * k)
    time, at most a ``FRAGILITY_CHUNK`` x N score block in memory.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    k = s.n_benchmarks
    z = _zscore_columns(s.table, s.benchmark_ids)
    by_id = _by_id(s.model_ids)
    _, first = np.unique(z[by_id], axis=0, return_index=True)
    reps = by_id[np.sort(first)]
    baseline = int(np.argmax(z[reps] @ np.full(k, 1.0 / k)))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(k, alpha), size=samples)
    zt = np.ascontiguousarray(z[reps].T)
    champions = np.empty(samples, dtype=np.intp)
    for start in range(0, samples, FRAGILITY_CHUNK):
        chunk = weights[start : start + FRAGILITY_CHUNK]
        champions[start : start + len(chunk)] = np.argmax(chunk @ zt, axis=1)
    changes = int(np.count_nonzero(champions != baseline))
    return FragilityReport(
        champion_change_rate=changes / samples,
        distinct_champions=int(np.unique(champions).size),
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
    """Per-benchmark ED shift and ranking agreement when it is removed."""
    full_ed = suite_ed(s)
    full_rank = composite_ranking(s, np.ones(s.n_benchmarks))
    out: dict[str, LeaveOneOut] = {}
    for j, bench in enumerate(s.benchmark_ids):
        keep = [b for b in s.benchmark_ids if b != bench]
        reduced = s.subset_benchmarks(keep)
        red_ed = suite_ed(reduced)
        red_rank = composite_ranking(reduced, np.ones(reduced.n_benchmarks))
        out[bench] = LeaveOneOut(
            delta_ed=full_ed - red_ed,
            tau_vs_full=kendall_tau(full_rank, red_rank),
        )
    return out


@dataclass(frozen=True)
class SubsetSearchResult:
    best_ids: tuple[str, ...]
    best_tau: float
    worst_ids: tuple[str, ...]
    worst_tau: float


def best_subset_search(s: SuiteScores, size: int) -> SubsetSearchResult:
    """Exhaustive search for the benchmark subset whose equal-weight ranking
    best (and worst) reproduces the full-suite ranking."""
    import math

    k = s.n_benchmarks
    if not 1 <= size <= k:
        raise ValueError(f"subset size must lie in [1, {k}]")
    if math.comb(k, size) > 1_000_000:
        raise ValueError("combination count exceeds the exhaustive-search budget")
    full_rank = composite_ranking(s, np.ones(k))
    best = worst = None
    for combo in itertools.combinations(s.benchmark_ids, size):
        sub = s.subset_benchmarks(combo)
        tau = kendall_tau(full_rank, composite_ranking(sub, np.ones(size)))
        if best is None or tau > best[1]:
            best = (combo, tau)
        if worst is None or tau < worst[1]:
            worst = (combo, tau)
    return SubsetSearchResult(
        best_ids=best[0], best_tau=best[1], worst_ids=worst[0], worst_tau=worst[1]
    )


def information_density(ed: float, k: int) -> float:
    """Independent signals per reported score: ED / k."""
    if k < 1:
        raise ValueError("suite size must be positive")
    return ed / k

