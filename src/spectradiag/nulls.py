"""Null calibration and statistical-stability checks for observed ED.

Covers the analytic random-matrix baseline, permutation nulls with per-rank
percentile bands, bootstrap confidence intervals, matched-dimension
subsampling, split-half reliability, metadata AUC, and the classical
factor-retention estimators used as cross-checks.

The bootstrap scores its resamples through ``spectral._column_resample_eds``,
which takes every resample's ED from one QR factor of the centered grid, so
the per-resample cost does not grow with T once T > N. The permutation and
parallel-analysis nulls shuffle the whole grid in one ``Generator.permuted``
call per replicate, into a buffer reused across replicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_io import ScoreMatrix
from .spectral import (
    _column_resample_eds,
    _gram,
    _gram_ed,
    center,
    ed_of_matrix,
    principal_components,
)

__all__ = [
    "EdReport",
    "NullSpectrumBand",
    "alternative_estimators",
    "bootstrap_ed_ci",
    "build_ed_report",
    "matched_dimension_ed",
    "mp_null_ed",
    "pc_metadata_auc",
    "permutation_null",
    "significant_pcs",
    "split_half_reliability",
]


@dataclass(frozen=True)
class EdReport:
    """ED of one matrix together with its null calibration and stability."""

    ed: float
    pc1_pct: float
    ed_null: float
    ratio: float
    ci_low: float
    ci_high: float
    n_tasks: int
    n_models: int
    seed: int

    def __post_init__(self) -> None:
        if abs(self.ratio - self.ed / self.ed_null) > 1e-12 * max(1.0, self.ratio):
            raise ValueError("ratio must equal ed / ed_null")
        if not self.ci_low <= self.ed <= self.ci_high:
            raise ValueError("confidence interval must bracket the point estimate")


@dataclass(frozen=True)
class NullSpectrumBand:
    """Per-rank 95th-percentile variance fractions under a permutation null."""

    band: np.ndarray
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        band = np.asarray(self.band, dtype=float)
        if self.replicates < 2:
            raise ValueError("need at least two replicates")
        if np.any(np.diff(band) > 1e-12):
            raise ValueError("band must be nonincreasing in rank")
        band.flags.writeable = False
        object.__setattr__(self, "band", band)


def mp_null_ed(n_tasks: int, n_models: int) -> float:
    """Analytic null ED for an i.i.d. T x N matrix: T*N / (T + N)."""
    if n_tasks < 1 or n_models < 1:
        raise ValueError("matrix dimensions must be positive")
    return n_tasks * n_models / (n_tasks + n_models)


def _variance_fractions(xc: np.ndarray) -> np.ndarray:
    """Variance share per rank of a centered grid, from its Gram eigenvalues."""
    lam = np.clip(np.linalg.eigvalsh(_gram(xc))[::-1], 0.0, None)
    total = lam.sum()
    if total <= 0.0:
        return np.zeros_like(lam)
    return lam / total


def permutation_null(
    m: ScoreMatrix,
    replicates: int = 100,
    seed: int = 0,
    axis: str = "rows",
) -> NullSpectrumBand:
    """Shuffle away inter-task correlation and collect the null spectrum band.

    ``axis="rows"`` (default) permutes each task row across model columns,
    preserving per-task difficulty marginals; ``axis="columns"`` permutes
    within model columns instead. Each replicate shuffles the whole grid in
    one ``Generator.permuted`` call into a buffer reused across replicates;
    a row shuffle keeps the task means, so that axis centers only once.
    """
    if replicates < 2:
        raise ValueError("need at least two replicates")
    if axis not in ("rows", "columns"):
        raise ValueError(f"axis must be 'rows' or 'columns', got {axis!r}")
    values = m.dense_values()
    if axis == "rows":
        values = center(values)
    shuffled = np.empty_like(values)
    fractions = np.empty((replicates, min(values.shape)))
    for r in range(replicates):
        rng = np.random.default_rng((seed, r))
        if axis == "rows":
            rng.permuted(values, axis=1, out=shuffled)
        else:
            rng.permuted(values, axis=0, out=shuffled)
            shuffled -= shuffled.mean(axis=1, keepdims=True)
        fractions[r] = _variance_fractions(shuffled)
    band = np.percentile(fractions, 95.0, axis=0)
    return NullSpectrumBand(band=band, replicates=replicates, seed=seed)


def significant_pcs(m: ScoreMatrix, band: NullSpectrumBand) -> int:
    """Largest r such that the leading r variance fractions all exceed the band."""
    observed = _variance_fractions(center(m.dense_values()))
    return _leading_run(observed, band.band)


def _leading_run(observed, threshold) -> int:
    """Count the leading entries of ``observed`` above ``threshold`` up to the
    first that is not (both truncated to the shorter length)."""
    n = min(len(observed), len(threshold))
    above = np.asarray(observed[:n]) > np.asarray(threshold[:n])
    return int(n if above.all() else above.argmin())


def bootstrap_ed_ci(
    m: ScoreMatrix,
    iterations: int = 1000,
    seed: int = 0,
    scheme: str = "task",
) -> tuple[float, float]:
    """95% percentile interval of ED under model-column resampling.

    Degenerate resamples carry no spectrum and are skipped: under ``task``
    those whose columns are all equal (every task row constant), under
    ``double`` those whose columns all differ by constants, under ``model``
    those whose columns are all constant and under ``none`` those whose
    columns are all zero; :func:`spectral._column_resample_eds` owns that
    rule and scores the rest from one QR factor of the centered
    grid, so R iterations cost O(T * N * min(T, N) + R * min(T, N)^2 * N)
    instead of a T x N copy and a Gram per resample.
    """
    if m.n_models < 5:
        raise ValueError("bootstrap needs at least five model columns")
    resamples = [
        np.random.default_rng((seed, i)).integers(0, m.n_models, size=m.n_models)
        for i in range(iterations)
    ]
    eds = _column_resample_eds(m.dense_values(), resamples, scheme)
    eds = eds[~np.isnan(eds)]
    if not eds.size:
        raise ValueError("every bootstrap resample was degenerate")
    alpha = (1.0 - 0.95) / 2.0
    low, high = np.percentile(eds, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


def matched_dimension_ed(
    m: ScoreMatrix,
    n_tasks: int,
    n_models: int,
    trials: int = 30,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean/sd of ED over uniformly subsampled n_tasks x n_models grids."""
    if n_tasks > m.n_tasks or n_models > m.n_models:
        raise ValueError("requested dimensions exceed the available matrix")
    values = m.dense_values()
    if n_tasks == m.n_tasks and n_models == m.n_models:
        return ed_of_matrix(values), 0.0
    eds = []
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        rows = np.sort(rng.choice(m.n_tasks, size=n_tasks, replace=False))
        cols = np.sort(rng.choice(m.n_models, size=n_models, replace=False))
        eds.append(ed_of_matrix(values[np.ix_(rows, cols)]))
    eds = np.asarray(eds)
    return float(eds.mean()), float(eds.std())


def split_half_reliability(
    m: ScoreMatrix,
    k: int,
    splits: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Mean |loading correlation| of each leading PC across random model splits.

    Models are halved at random; per split the task-loading vectors of both
    halves are matched greedily by maximal absolute correlation.
    """
    if m.n_models < 10:
        raise ValueError("split-half reliability needs at least ten models")
    values = m.dense_values()
    half = m.n_models // 2
    k = min(k, half, m.n_tasks)
    sums = np.zeros(k)
    for s in range(splits):
        rng = np.random.default_rng((seed, s))
        perm = rng.permutation(m.n_models)
        load_a = principal_components(center(values[:, perm[:half]]), k).components
        load_b = principal_components(center(values[:, perm[half:]]), k).components
        za = load_a - load_a.mean(axis=0)
        zb = load_b - load_b.mean(axis=0)
        denom = np.outer(np.linalg.norm(za, axis=0), np.linalg.norm(zb, axis=0))
        # a zero-norm loading correlates 0 with everything
        corr = np.abs(za.T @ zb) / np.where(denom > 0.0, denom, np.inf)
        # Greedy match: the row-major first maximum is the largest correlation,
        # ties to the lowest a then b; -1 retires a matched row and column.
        for _ in range(k):
            i, j = divmod(int(np.argmax(corr)), k)
            sums[i] += corr[i, j]
            corr[i] = corr[:, j] = -1.0
    return sums / splits


def pc_metadata_auc(scores, labels) -> float:
    """Orientation-free AUC of ranking models by a PC score against flags.

    Ties receive the standard half credit; the larger of AUC and 1-AUC is
    reported since component sign is arbitrary.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be nonempty")
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    auc = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(max(auc, 1.0 - auc))


def _model_correlation_eigenvalues(values: np.ndarray) -> np.ndarray:
    if np.any(values.max(axis=0) == values.min(axis=0)):
        raise ValueError("degenerate correlation matrix: constant model column")
    corr = np.corrcoef(values, rowvar=False)
    return np.sort(np.linalg.eigvalsh(corr))[::-1]


def _parallel_analysis_null(values: np.ndarray, seed: int, replicates: int) -> np.ndarray:
    """Model-correlation eigenvalues, largest first, of ``replicates`` grids
    whose columns are shuffled independently; one row per replicate.

    A within-column shuffle keeps each column's mean and spread, so the grid
    is standardized once to Z and each replicate's correlation matrix is
    Zp^T Zp / T for the shuffled Zp, written into one reused buffer. Z is
    held as a C-contiguous N x T array, so each column is shuffled in place
    as one contiguous row; the draws equal ``permuted(Z, axis=0)``'s.
    """
    zt = np.array(values.T, order="C")
    zt -= values.mean(axis=0)[:, None]
    zt /= values.std(axis=0)[:, None]
    shuffled = np.empty_like(zt)
    eigs = np.empty((replicates, zt.shape[0]))
    for r in range(replicates):
        rng = np.random.default_rng((seed, r))
        rng.permuted(zt, axis=1, out=shuffled)
        eigs[r] = np.linalg.eigvalsh(shuffled @ shuffled.T / zt.shape[1])[::-1]
    return eigs


def alternative_estimators(
    m: ScoreMatrix,
    seed: int = 0,
    pa_replicates: int = 20,
) -> dict[str, int]:
    """Classical dimensionality counts on the model-correlation spectrum.

    Parallel analysis and broken-stick count leading eigenvalues until the
    first failure; Kaiser counts eigenvalues above one; var80/var90 count
    components needed to reach the cumulative-variance threshold. Each
    parallel-analysis replicate shuffles every column of the standardized
    grid in one ``Generator.permuted`` call.
    """
    values = m.dense_values()
    eig = _model_correlation_eigenvalues(values)
    p = eig.size

    pa_mean = _parallel_analysis_null(values, seed, pa_replicates).mean(axis=0)
    pa = _leading_run(eig, pa_mean)

    kaiser = int((eig > 1.0).sum())

    frac = eig / eig.sum()
    broken = (1.0 / p) * np.array([np.sum(1.0 / np.arange(i, p + 1)) for i in range(1, p + 1)])
    bs = _leading_run(frac, broken)

    cum = np.cumsum(frac)
    var80 = int(np.searchsorted(cum, 0.8 - 1e-12) + 1)
    var90 = int(np.searchsorted(cum, 0.9 - 1e-12) + 1)
    return {
        "parallel_analysis": pa,
        "kaiser": kaiser,
        "broken_stick": bs,
        "var80": var80,
        "var90": var90,
    }


def build_ed_report(
    m: ScoreMatrix,
    seed: int = 0,
    bootstrap_iterations: int = 1000,
    scheme: str = "task",
) -> EdReport:
    """Full ED report: point estimate, PC1%, analytic null, ratio, CI.

    The bootstrap is skipped (degenerate interval) when fewer than five model
    columns are available or iterations is zero. ED and PC1% come from one
    Gram matrix of the centered grid, so ``ed`` is :func:`ed_of_matrix`'s.
    """
    gram = _gram(center(m.dense_values(), scheme))
    ed = float(_gram_ed(gram))
    null = mp_null_ed(m.n_tasks, m.n_models)
    if bootstrap_iterations > 0 and m.n_models >= 5:
        low, high = bootstrap_ed_ci(
            m, iterations=bootstrap_iterations, seed=seed, scheme=scheme
        )
        low, high = min(low, ed), max(high, ed)
    else:
        low = high = ed
    return EdReport(
        ed=ed,
        pc1_pct=float(np.linalg.eigvalsh(gram)[-1] / gram.trace()),
        ed_null=null,
        ratio=ed / null,
        ci_low=low,
        ci_high=high,
        n_tasks=m.n_tasks,
        n_models=m.n_models,
        seed=seed,
    )
