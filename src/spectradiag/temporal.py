"""Population-ordered ED dynamics: sliding windows, trend tests, saturation.

Sliding-window ED over a performance-sorted population (optionally variance
standardized within windows), the Mann-Kendall monotone-trend test with tie
correction, hyperbolic saturation fits, fixed-variance control subsets,
cohort bootstrap comparison, and the diversity-insertion probe.

ED against model count and the insertion probe score all their model subsets
in one call of ``spectral._column_resample_eds``, the package's one path for
the ED of a model-column subset.

Sliding windows are scored as stacks of windows, one of
``association._blocks`` each, one batched Gram per stack.

The cohort bootstrap scores its R resamples of S models over k benchmarks
in blocks of B: each resample is a row of model multiplicities, and one
product of that B x n count matrix with the n cohort models' values and
pairwise products gives the k(k+1)/2 upper triangle of every resample's
covariance, O(R * S) draws plus O(R * n * k^2) arithmetic instead of R
copies of a k x S block, in O(B * (S + n)) memory with B * (S + n + k^2)
within the cell budget. A benchmark's constancy in a resample is read from
its first min(8, S) draws, O(R * k), and from all S only where those agree;
ED is read from the scaled triangle, O(R * k^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .association import _blocks, _count, _dense_ranks, _inversions, _percentile_interval, _streams
from .composite import SuiteScores
from .matrix_io import ScoreMatrix, _positions, _write_csv_grid
from .spectral import _column_resample_eds, _gram, _gram_ed, _sums_ed, center

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


def _window_ed(blocks: np.ndarray, standardize: bool) -> np.ndarray:
    """Suite ED of each benchmarks x models block of a (..., k, w) stack.

    With ``standardize`` each centered benchmark row is divided by its root
    mean square, its z-score within the block as in ``spectral._zscore_columns``.
    A row whose values are all equal contributes nothing either way:
    :func:`center` sets it to exactly zero.
    """
    x = center(blocks, "task")
    if standardize:
        rms = np.sqrt((x * x).sum(axis=-1, keepdims=True) / x.shape[-1])
        x /= np.where(rms > 0.0, rms, 1.0)
    return _gram_ed(_gram(x))


def sliding_window_ed(
    s: SuiteScores,
    window: int = 500,
    step: int = 200,
    standardize: bool = False,
) -> EdSeries:
    """Per-window suite ED over a pre-sorted model population.

    The x axis is the window's end position (models covered so far). The W
    windows of k benchmarks are scored as (B, k, window) stacks, one of
    ``_blocks`` of k * window cells a window each: one centering, one
    batched Gram and one ED per stack.
    O(W * k * window * min(k, window)) time, O(B * k * window) memory.
    """
    if window > s.n_models:
        raise ValueError("window exceeds the model population")
    if window < 2 or step < 1:
        raise ValueError("window must be >= 2 and step >= 1")
    # (W, k, window) view of the windows over the models x benchmarks table
    views = np.lib.stride_tricks.sliding_window_view(s.table, window, axis=0)[::step]
    blocks = _blocks(len(views), s.n_benchmarks * window)
    eds = np.concatenate([_window_ed(views[block], standardize) for block in blocks])
    return EdSeries(
        x=tuple(float(end) for end in range(window, s.n_models + 1, step)),
        ed=tuple(eds.tolist()),
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

    S = n(n-1)/2 - tied pairs - 2 * inversions and the tie groups come from
    the series' dense ranks, as tau-b counts them, in O(n log n); a NaN raises.
    Uses exact enumeration for tie-free series of length <= 10, otherwise the
    normal approximation with continuity correction.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("need a 1-D series of length >= 4")
    if np.isnan(x).any():
        raise ValueError("series holds NaN")
    n = x.size
    ranks, ties = _dense_ranks(x[None])
    tied = int(ties[0])
    s = int(n * (n - 1) // 2 - tied - 2 * _inversions(ranks)[0])
    d1 = n * (n - 1) / 2.0
    d2 = d1 - tied
    if d2 <= 0.0:
        return MannKendall(tau=0.0, p=1.0, s=0)
    tau = s / math.sqrt(d1 * d2)
    if tied == 0 and n <= 10:
        p = _mk_exact_p(n, s)
    else:
        tie_counts = np.bincount(ranks[0])
        var_s = (
            n * (n - 1) * (2 * n + 5)
            - float((tie_counts * (tie_counts - 1) * (2 * tie_counts + 5)).sum())
        ) / 18.0
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
    scale. The start has ed_inf > 0 and n_half >= 0, and a step is taken
    only when it keeps both, so the fit never leaves that region. A fit
    collapsing to n_half = 0 (constant series) is flagged as boundary.
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
    _count("trials", trials)
    subsets = []
    ends = []
    for ci, count in enumerate(counts):
        if not 2 <= count <= m.n_models:
            raise ValueError(f"count {count} outside [2, {m.n_models}]")
        for rng in _streams(seed, 1 if count == m.n_models else trials, "trials", ci):
            subsets.append(np.sort(rng.choice(m.n_models, size=count, replace=False)))
        ends.append((int(count), len(subsets)))
    parts = np.split(_subset_eds(m, subsets), [end for _, end in ends[:-1]])
    return [(count, float(p.mean()), float(p.std())) for (count, _), p in zip(ends, parts)]


def fixed_variance_subset(
    m: ScoreMatrix,
    early_ids,
    late_ids,
    tol: float = 0.2,
) -> list[str]:
    """Tasks whose variance moves less than ``tol`` (relative) between cohorts;
    the early-cohort variance is floored at 1e-9 in the denominator."""
    early = _positions(m._model_pos, early_ids, "model")
    late = _positions(m._model_pos, late_ids, "model")
    if not early or not late:
        raise ValueError("both cohorts must be nonempty")
    values = m.dense_values()
    var_early = values[:, early].var(axis=1)
    var_late = values[:, late].var(axis=1)
    keep = np.abs(var_late - var_early) / np.maximum(var_early, 1e-9) < tol
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
    means are C Xc^T / S and its second moments C P / S, so the upper
    triangle of every resample's covariance comes from one product. A
    benchmark whose sampled values are all equal gets a zero row, as
    :func:`center` gives it in :func:`_window_ed`; the others are scaled to
    unit variance. The max == min test runs on the first min(8, S) draws of
    each resample, and in full only where those are all equal, so it stays
    exact. ED is tr(G)^2 / ||G||_F^2 of each scaled k x k covariance G, from
    its upper triangle: the trace from the diagonal, the squared norm with
    weight 2 off the diagonal.
    """
    k, n = block.shape
    r, size = positions.shape
    flat = (np.arange(r)[:, None] * n + positions).ravel()
    counts = np.bincount(flat, minlength=r * n).reshape(r, n)
    xc = block - block.mean(axis=1, keepdims=True)
    i, j = np.triu_indices(k)
    moments = counts @ np.vstack([xc, xc[i] * xc[j]]).T / size
    mean, second = moments[:, :k], moments[:, k:]
    cov = second - mean[:, i] * mean[:, j]
    head = block[:, positions[:, :8]]
    bench, rep = np.nonzero(head.max(axis=2) == head.min(axis=2))
    drawn = block[bench[:, None], positions[rep]]
    constant = np.zeros((r, k), dtype=bool)
    constant[rep, bench] = drawn.max(axis=1) == drawn.min(axis=1)
    diag = i == j
    var = np.where(constant, 1.0, cov[:, diag])
    scale = np.where(constant, 0.0, 1.0 / np.sqrt(var))
    gram = cov * scale[:, i] * scale[:, j]
    return _sums_ed(gram[:, diag].sum(axis=1), (gram * gram) @ np.where(diag, 1.0, 2.0))


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
    Cohen's d is computed on the two bootstrap distributions, and ``ci`` is
    :func:`association._percentile_interval` of ED(b) - ED(a). Iteration i
    draws cohort a's resample, then cohort b's, from the i-th of ``_streams``;
    the iterations are drawn and scored by :func:`_cohort_eds` in
    ``_blocks`` of B iterations, whose positions and counts take
    B * (S + n + k^2) cells. That is O(R * S + R * n * k^2)
    time and O(B * (S + n)) memory for R iterations, S = ``sample``, cohorts
    of n models and k benchmarks.
    """
    idx_a = s.model_positions(group_a)
    idx_b = s.model_positions(group_b)
    if len(idx_a) < 10 or len(idx_b) < 10:
        raise ValueError("each cohort needs at least ten models")
    table_a, table_b = s.table[idx_a].T, s.table[idx_b].T
    cells = sample + max(len(idx_a), len(idx_b)) + s.n_benchmarks**2
    streams = _streams(seed, iterations, "iterations")
    ed_a = np.empty(iterations)
    ed_b = np.empty(iterations)
    for block in _blocks(iterations, cells):
        # rng.choice(idx, size=sample) positions, cohort a's then b's per rng
        rngs = list(itertools.islice(streams, block.stop - block.start))
        for eds, table, n in ((ed_a, table_a, len(idx_a)), (ed_b, table_b, len(idx_b))):
            eds[block] = _cohort_eds(table, np.array([g.integers(0, n, size=sample) for g in rngs]))
    deltas = ed_b - ed_a
    pooled = math.sqrt((ed_a.var() + ed_b.var()) / 2.0)
    d = float(deltas.mean() / pooled) if pooled > 0.0 else 0.0
    return CohortComparison(
        delta=float(deltas.mean()),
        ci=_percentile_interval(deltas),
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
    rngs = _streams(seed, trials, "trials")
    late = _positions(m._model_pos, late_ids, "model")
    early = _positions(m._model_pos, early_ids, "model")
    if not late or not early:
        raise ValueError("both cohorts must be nonempty")
    picks = [int(g.choice(early)) for g in rngs]
    eds = _subset_eds(m, [late] + [late + [pick] for pick in picks])
    return int((eds[1:] > eds[0]).sum()) / trials


def temporal_information_density(series: EdSeries) -> float:
    """Least-squares slope of ED against the series axis."""
    x = np.asarray(series.x, dtype=float)
    y = np.asarray(series.ed, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points")
    return float(np.polyfit(x, y, 1)[0])
