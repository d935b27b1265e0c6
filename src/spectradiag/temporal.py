"""Population-ordered ED dynamics: sliding windows, trend tests, saturation.

Sliding-window ED over a performance-sorted population (optionally variance
standardized within windows), the Mann-Kendall monotone-trend test with tie
correction, hyperbolic saturation fits, fixed-variance control subsets,
cohort bootstrap comparison, and the diversity-insertion probe.

ED against model count and the insertion probe score all their model subsets
in one call of ``spectral._column_resample_eds``, the package's one path for
the ED of a model-column subset.

The cohort bootstrap scores its R resamples of S models over k benchmarks
in blocks of B: each resample is a row of model multiplicities, and one
product of that B x n count matrix with the n cohort models' values and
pairwise products gives every resample's k x k standardized Gram, O(R * S)
draws plus O(R * n * k^2) arithmetic instead of R copies of a k x S block,
in O(B * (S + n)) memory with B * (S + n + k^2) within the package's
``_KENDALL_CHUNK_CELLS`` cell budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .association import _KENDALL_CHUNK_CELLS
from .composite import SuiteScores
from .matrix_io import ScoreMatrix, _write_csv_grid
from .spectral import _column_resample_eds, _gram_ed, center, ed_of_matrix

__all__ = [
    "CohortComparison",
    "EdSeries",
    "MannKendall",
    "SaturationFit",
    "cohort_bootstrap_compare",
    "diversity_insertion_probe",
    "ed_vs_model_count",
    "fixed_variance_subset",
    "mann_kendall",
    "saturation_fit",
    "sliding_window_ed",
    "temporal_information_density",
]


@dataclass(frozen=True)
class EdSeries:
    """ED against an ordered axis (window end, model count, or cohort index)."""

    x: tuple[float, ...]
    ed: tuple[float, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.ed):
            raise ValueError("x and ed must have equal lengths")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("x must be strictly increasing")

    def save_csv(self, path) -> None:
        """Two-column ``x,ed`` CSV, the series layout ``trend --series`` reads."""
        _write_csv_grid(path, "x", self.x, ["ed"], np.array(self.ed, dtype=float)[:, None])


def _window_ed(table: np.ndarray, standardize: bool) -> float:
    """Suite ED of a benchmarks x models block.

    With ``standardize`` each benchmark row is z-scored within the block.
    A row whose values are all equal contributes nothing either way:
    :func:`center` sets it to exactly zero.
    """
    x = center(table, "task")
    if standardize:
        std = table.std(axis=1, keepdims=True)
        x /= np.where(std > 0.0, std, 1.0)
    return ed_of_matrix(x, scheme="none")


def sliding_window_ed(
    s: SuiteScores,
    window: int = 500,
    step: int = 200,
    standardize: bool = False,
) -> EdSeries:
    """Per-window suite ED over a pre-sorted model population.

    The x axis is the window's end position (models covered so far).
    """
    if window > s.n_models:
        raise ValueError("window exceeds the model population")
    if window < 2 or step < 1:
        raise ValueError("window must be >= 2 and step >= 1")
    table = s.benchmark_table()
    xs: list[float] = []
    eds: list[float] = []
    start = 0
    while start + window <= s.n_models:
        block = table[:, start : start + window]
        xs.append(float(start + window))
        eds.append(_window_ed(block, standardize))
        start += step
    return EdSeries(
        x=tuple(xs),
        ed=tuple(eds),
        meta={"window": window, "step": step, "standardized": standardize},
    )


@dataclass(frozen=True)
class MannKendall:
    tau: float
    p: float
    s: int


def _mk_exact_p(n: int, s_obs: int) -> float:
    """Two-sided exact p for the untied Mann-Kendall statistic.

    Counts permutations by inversion number (S = n(n-1)/2 - 2 * inversions).
    """
    max_inv = n * (n - 1) // 2
    counts = np.zeros(max_inv + 1, dtype=float)
    counts[0] = 1.0
    for m in range(2, n + 1):
        # counts_m[inv] = sum of counts_{m-1}[inv - m + 1 .. inv]
        cum = np.cumsum(counts)
        counts = cum.copy()
        counts[m:] -= cum[:-m]
    total = counts.sum()
    s_values = max_inv - 2 * np.arange(max_inv + 1)
    prob = counts[np.abs(s_values) >= abs(s_obs)].sum() / total
    return float(min(1.0, prob))


def mann_kendall(series) -> MannKendall:
    """Monotone-trend test with tie-corrected tau.

    Uses exact enumeration for tie-free series of length <= 10, otherwise the
    normal approximation with continuity correction.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("need a 1-D series of length >= 4")
    n = x.size
    s = 0
    for i in range(n - 1):
        s += int(np.sign(x[i + 1 :] - x[i]).sum())
    _, tie_counts = np.unique(x, return_counts=True)
    d1 = n * (n - 1) / 2.0
    d2 = d1 - float((tie_counts * (tie_counts - 1) / 2.0).sum())
    if d2 <= 0.0:
        return MannKendall(tau=0.0, p=1.0, s=0)
    tau = s / math.sqrt(d1 * d2)
    no_ties = bool(np.all(tie_counts == 1))
    if no_ties and n <= 10:
        p = _mk_exact_p(n, s)
    else:
        var_s = (
            n * (n - 1) * (2 * n + 5)
            - float((tie_counts * (tie_counts - 1) * (2 * tie_counts + 5)).sum())
        ) / 18.0
        if var_s <= 0.0:
            return MannKendall(tau=float(tau), p=1.0, s=s)
        if s > 0:
            z = (s - 1) / math.sqrt(var_s)
        elif s < 0:
            z = (s + 1) / math.sqrt(var_s)
        else:
            z = 0.0
        # two-sided tail 2 * (1 - Phi(|z|)) without the cancellation that rounds it to 0
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return MannKendall(tau=float(tau), p=float(p), s=s)


@dataclass(frozen=True)
class SaturationFit:
    """Hyperbolic fit ED(n) = ed_inf * n / (n + n_half)."""

    ed_inf: float
    n_half: float
    rss: float
    boundary: bool = False

    def predict(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.ed_inf * n / (n + self.n_half)


def saturation_fit(points) -> SaturationFit:
    """Fit the saturation model by linearized least squares plus Gauss-Newton.

    The linearized form 1/ED = 1/ed_inf + (n_half/ed_inf)(1/n) provides the
    start; at most 100 damped Gauss-Newton steps refine on the original
    scale. A fit collapsing to n_half = 0 (constant series) is flagged as
    boundary rather than rejected; negative parameters reject the model.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (n, ed) pairs")
    n = pts[:, 0]
    ed = pts[:, 1]
    if np.unique(n).size < 3:
        raise ValueError("need at least three distinct n values")
    if np.any(n <= 0.0) or np.any(ed <= 0.0):
        raise ValueError("n and ed must be positive")
    design = np.column_stack([np.ones_like(n), 1.0 / n])
    coef, *_ = np.linalg.lstsq(design, 1.0 / ed, rcond=None)
    intercept, slope = coef
    if intercept <= 0.0:
        intercept = 1.0 / ed.max()
    a = 1.0 / intercept
    b = max(slope / intercept, 0.0)

    def rss_of(a_: float, b_: float) -> float:
        resid = ed - a_ * n / (n + b_)
        return float(np.dot(resid, resid))

    best = rss_of(a, b)
    for _ in range(100):
        pred = a * n / (n + b)
        resid = ed - pred
        j_a = n / (n + b)
        j_b = -a * n / (n + b) ** 2
        jac = np.column_stack([j_a, j_b])
        try:
            step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        improved = False
        for _ in range(20):
            na = a + scale * step[0]
            nb = b + scale * step[1]
            if na > 0.0 and nb >= 0.0:
                cand = rss_of(na, nb)
                if cand < best - 1e-15:
                    a, b, best = na, nb, cand
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            break
    if a <= 0.0 or b < 0.0:
        raise ValueError("saturation model rejected: non-positive parameters")
    boundary = bool(b < 1e-8 * max(1.0, float(np.median(n))))
    return SaturationFit(ed_inf=float(a), n_half=float(b), rss=best, boundary=boundary)


def _subset_eds(m: ScoreMatrix, subsets) -> np.ndarray:
    """Task-centered ED of each model-column subset; a degenerate one raises."""
    eds = _column_resample_eds(m.dense_values(), subsets, "task")
    if np.isnan(eds).any():
        raise ValueError("all-zero spectrum: effective dimensionality undefined")
    return eds


def ed_vs_model_count(
    m: ScoreMatrix,
    counts,
    trials: int = 20,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """Mean/sd ED over random model subsets of each size, all drawn first and
    then scored in one :func:`_subset_eds` call."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    subsets = []
    ends = []
    for ci, count in enumerate(counts):
        if not 2 <= count <= m.n_models:
            raise ValueError(f"count {count} outside [2, {m.n_models}]")
        for trial in range(1 if count == m.n_models else trials):
            rng = np.random.default_rng((seed, ci, trial))
            subsets.append(np.sort(rng.choice(m.n_models, size=count, replace=False)))
        ends.append((int(count), len(subsets)))
    parts = np.split(_subset_eds(m, subsets), [end for _, end in ends[:-1]])
    return [(count, float(p.mean()), float(p.std())) for (count, _), p in zip(ends, parts)]


def fixed_variance_subset(
    m: ScoreMatrix,
    early_ids,
    late_ids,
    tol: float = 0.2,
    eps: float = 1e-9,
) -> list[str]:
    """Tasks whose variance moves less than ``tol`` (relative) between cohorts."""
    early = [m.model_index(i) for i in early_ids]
    late = [m.model_index(i) for i in late_ids]
    if not early or not late:
        raise ValueError("both cohorts must be nonempty")
    values = m.dense_values()
    var_early = values[:, early].var(axis=1)
    var_late = values[:, late].var(axis=1)
    keep = np.abs(var_late - var_early) / np.maximum(var_early, eps) < tol
    return [t for t, k in zip(m.task_ids, keep) if k]


@dataclass(frozen=True)
class CohortComparison:
    """Bootstrap ED comparison between two model cohorts (b minus a)."""

    delta: float
    ci: tuple[float, float]
    cohens_d: float
    p_direction: float
    iterations: int
    seed: int


def _cohort_eds(block: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Standardized suite ED of ``block[:, pos]`` for each row ``pos`` of ``positions``.

    ``block`` is k benchmarks x n cohort models and ``positions`` is R x S.
    Each resample is reduced to its model multiplicities (one row of an
    R x n count matrix C); with the block centered by its cohort means (Xc)
    and P the n x k(k+1)/2 per-model products of centered rows, the resample
    means are C Xc^T / S and its second moments C P / S, so every resample's
    covariance comes from one product. A benchmark whose sampled values are
    all equal (decided exactly, from its max and min over the draws) gets a
    zero row, as :func:`center` gives it in :func:`_window_ed`; the others are scaled to unit
    variance, and ED is tr(G)^2 / ||G||_F^2 of each k x k result.
    """
    k, n = block.shape
    r, size = positions.shape
    flat = (np.arange(r)[:, None] * n + positions).ravel()
    counts = np.bincount(flat, minlength=r * n).reshape(r, n)
    xc = block - block.mean(axis=1, keepdims=True)
    i, j = np.triu_indices(k)
    moments = counts @ np.vstack([xc, xc[i] * xc[j]]).T / size
    mean, second = moments[:, :k], moments[:, k:]
    cov = np.empty((r, k, k))
    cov[:, i, j] = cov[:, j, i] = second - mean[:, i] * mean[:, j]
    constant = np.empty((r, k), dtype=bool)
    for b, row in enumerate(block):
        drawn = row[positions]
        constant[:, b] = drawn.max(axis=1) == drawn.min(axis=1)
    var = np.where(constant, 1.0, np.diagonal(cov, axis1=1, axis2=2))
    scale = np.where(constant, 0.0, 1.0 / np.sqrt(var))
    gram = cov * scale[:, :, None] * scale[:, None, :]
    return _gram_ed(gram)


def cohort_bootstrap_compare(
    s: SuiteScores,
    group_a,
    group_b,
    sample: int = 300,
    iterations: int = 1000,
    seed: int = 0,
) -> CohortComparison:
    """Resample both cohorts, compare their suite EDs.

    ``p_direction`` is the fraction of iterations with ED(b) > ED(a);
    Cohen's d is computed on the two bootstrap distributions. Iteration i
    draws cohort a's resample, then cohort b's, from ``default_rng((seed, i))``;
    the iterations are drawn and scored by :func:`_cohort_eds` in blocks of
    B, sized so that a block's positions and counts, B * (S + n + k^2)
    cells, stay within ``_KENDALL_CHUNK_CELLS``. That is O(R * S + R * n * k^2)
    time and O(B * (S + n)) memory for R iterations, S = ``sample``, cohorts
    of n models and k benchmarks.
    """
    idx_a = s.model_positions(group_a)
    idx_b = s.model_positions(group_b)
    if len(idx_a) < 10 or len(idx_b) < 10:
        raise ValueError("each cohort needs at least ten models")
    table_a, table_b = s.table[idx_a].T, s.table[idx_b].T
    cells = sample + max(len(idx_a), len(idx_b)) + s.n_benchmarks**2
    rows = max(1, _KENDALL_CHUNK_CELLS // cells)
    pos_a = np.empty((min(rows, iterations), sample), dtype=np.intp)
    pos_b = np.empty_like(pos_a)
    ed_a = np.empty(iterations)
    ed_b = np.empty(iterations)
    for start in range(0, iterations, rows):
        stop = min(start + rows, iterations)
        for r, i in enumerate(range(start, stop)):
            # The positions rng.choice(idx, size=sample, replace=True) would pick.
            rng = np.random.default_rng((seed, i))
            pos_a[r] = rng.integers(0, len(idx_a), size=sample)
            pos_b[r] = rng.integers(0, len(idx_b), size=sample)
        ed_a[start:stop] = _cohort_eds(table_a, pos_a[: stop - start])
        ed_b[start:stop] = _cohort_eds(table_b, pos_b[: stop - start])
    deltas = ed_b - ed_a
    pooled = math.sqrt((ed_a.var() + ed_b.var()) / 2.0)
    d = float(deltas.mean() / pooled) if pooled > 0.0 else 0.0
    low, high = np.percentile(deltas, [2.5, 97.5])
    return CohortComparison(
        delta=float(deltas.mean()),
        ci=(float(low), float(high)),
        cohens_d=d,
        p_direction=float((ed_b > ed_a).mean()),
        iterations=iterations,
        seed=seed,
    )


def diversity_insertion_probe(
    m: ScoreMatrix,
    late_ids,
    early_ids,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Fraction of trials where inserting one random early model into the late
    cohort increases ED."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    late = [m.model_index(i) for i in late_ids]
    early = [m.model_index(i) for i in early_ids]
    if not late or not early:
        raise ValueError("both cohorts must be nonempty")
    picks = [int(np.random.default_rng((seed, i)).choice(early)) for i in range(trials)]
    eds = _subset_eds(m, [late] + [late + [pick] for pick in picks])
    return int((eds[1:] > eds[0]).sum()) / trials


def temporal_information_density(series: EdSeries) -> float:
    """Least-squares slope of ED against the series axis."""
    x = np.asarray(series.x, dtype=float)
    y = np.asarray(series.ed, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points")
    return float(np.polyfit(x, y, 1)[0])
