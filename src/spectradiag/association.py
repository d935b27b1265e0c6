"""Pairwise association machinery.

Correlation matrices with bootstrap/partial/stratified variants, tetrachoric
estimation from 2x2 pass/fail tables (latent bivariate-normal model solved for
all pairs at once by Newton's method safeguarded by bisection on a bracket),
average-linkage clustering on 1-|r| distances, redundancy/complementarity
flags, and the Hamming baseline.

Every paired correlation, one pair or R pairs, goes through ``_paired_corr``;
only correlation matrices take their own path: the all-pairs Gram product
for Pearson and Spearman, rank-once counting for Kendall.

Kendall's tau-b is ranking then counting: each series of n values is ranked
once (dense ranks, O(n log n)), and each pair's discordant and joint-tied
pairs are counted exactly by one of two paths, chosen per block of pairs
from the largest level counts dx and dy among its series. When dx * dy <= n
they come from the dx x dy contingency table of the ranks, O(n + dx * dy)
per pair; otherwise from merge-sort inversions of the joint ranks,
O(n log n) per pair. The counts are the same integers either way.
``pairwise_correlation`` ranks each of its p live series once, then counts
its p(p-1)/2 pairs.

``_CELL_BUDGET`` (2 MB of floats) is the package's one working-set budget.
Only ``_block_rows`` divides it; every loop it bounds steps through
``_blocks``, except Dirichlet fragility, whose row cost shrinks as it runs."""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_io import ScoreMatrix, _id_positions, _write_csv_grid
from .spectral import participation_ratio

_RHO_CLAMP = 0.999
_RHO_BRACKET = 0.999999
_CELL_BUDGET = 1 << 18

__all__ = [
    "ClusterGrouping",
    "CorrMatrix",
    "RedundancyFlags",
    "correlation_ci",
    "hierarchical_cluster",
    "mean_pairwise_hamming",
    "pairwise_correlation",
    "partial_correlation",
    "redundancy_flags",
    "save_corr_csv",
    "stratified_correlation",
    "tetrachoric",
    "tetrachoric_ed",
    "tetrachoric_matrix",
]


@dataclass(frozen=True)
class CorrMatrix:
    """Symmetric pairwise correlation table tagged with its method.

    Entries involving a flagged zero-variance series are NaN.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    method: str
    degenerate_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        p = len(self.ids)
        if values.shape != (p, p):
            raise ValueError("correlation grid must be square and match ids")
        _id_positions(self.ids, "series")
        # only NaN is undefined, so the range check rejects +-inf
        defined = ~np.isnan(values)
        if not np.array_equal(defined, defined.T):
            raise ValueError("undefined entries must be symmetric")
        if np.any(np.abs(values[defined]) > 1.0 + 1e-12):
            raise ValueError("correlations must lie in [-1, 1]")
        if np.any(np.abs(values[defined] - values.T[defined]) > 1e-12):
            raise ValueError("correlation matrix must be symmetric")
        diag = np.diag(values)
        if not np.allclose(diag[~np.isnan(diag)], 1.0, atol=1e-12):
            raise ValueError("diagonal must be one")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "degenerate_ids", tuple(self.degenerate_ids))

    @property
    def has_undefined(self) -> bool:
        return bool(np.isnan(self.values).any())


@dataclass(frozen=True)
class ClusterGrouping:
    """Average-linkage merge tree plus the flat partition at the chosen cut."""

    ids: tuple[str, ...]
    merges: tuple[tuple[tuple[str, ...], tuple[str, ...], float], ...]
    groups: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class RedundancyFlags:
    """Task-pair lists at the maintainer-workflow thresholds."""

    redundant: tuple[tuple[str, str, float], ...]
    vet_fail: tuple[tuple[str, str, float], ...]
    complementary: tuple[tuple[str, str, float], ...]


def _block_rows(cells_per_row: int) -> int:
    """Rows of ``cells_per_row`` cells that fit in ``_CELL_BUDGET``, at least one."""
    return max(1, _CELL_BUDGET // max(cells_per_row, 1))


def _blocks(n: int, cells_per_row: int):
    """Slices covering ``range(n)`` in order, ``_block_rows(cells_per_row)`` long."""
    step = _block_rows(cells_per_row)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _count(what: str, value: int, low: int = 1) -> int:
    """``value``, or the one count error when it is below ``low``."""
    if value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def _streams(seed: int, count: int, what: str, *key):
    """Generators ``default_rng((seed, *key, i))`` for i < ``count``, checked by
    ``_count(what, count)``: replicate i of every seeded loop draws from the i-th."""
    return (np.random.default_rng((seed, *key, i)) for i in range(_count(what, count)))


def _resamples(seed: int, iterations: int, n: int):
    """Bootstrap index rows of n points, one array per :func:`_blocks` block
    of n cells a row: row i is ``integers(0, n, size=n)`` from the i-th of
    :func:`_streams`, a draw of n positions with replacement."""
    rngs = _streams(seed, iterations, "iterations")
    for block in _blocks(iterations, n):
        draws = itertools.islice(rngs, block.stop - block.start)
        yield np.array([g.integers(0, n, size=n) for g in draws])


def _percentile_interval(stats: np.ndarray) -> tuple[float, float]:
    """95% percentile interval of bootstrap statistics, where NaN marks a
    degenerate resample: those are dropped, and if none remains it raises."""
    stats = stats[~np.isnan(stats)]
    if not stats.size:
        raise ValueError("every bootstrap resample was degenerate")
    alpha = (1.0 - 0.95) / 2.0
    low, high = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(low), float(high)


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Flags marking where each run of equal values starts in sorted rows."""
    new = np.ones(s.shape, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    return new


def _tied_pairs(new: np.ndarray) -> np.ndarray:
    """Pairs inside runs of each sorted row, from its run-start flags."""
    pos = np.arange(new.shape[1])
    start = np.maximum.accumulate(np.where(new, pos, 0), axis=1)
    return (pos - start).sum(axis=1)


def _dense_ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks 0, 1, ... along each row of ``v`` and each row's tied pairs.

    A row holding a NaN is ranked as one level, all pairs tied, so its tau-b
    is NaN like a constant row's.
    """
    order = np.argsort(v, axis=1)
    new = _run_starts(np.take_along_axis(v, order, axis=1))
    ranks = np.empty(v.shape, dtype=np.intp)
    np.put_along_axis(ranks, order, np.cumsum(new, axis=1) - 1, axis=1)
    ties = _tied_pairs(new)
    nan = np.isnan(v).any(axis=1)
    ranks[nan] = 0
    ties[nan] = v.shape[1] * (v.shape[1] - 1) // 2
    return ranks, ties


def _inversions(v: np.ndarray) -> np.ndarray:
    """Pairs i < j with v[i] > v[j] in each row of ``v``, ints in [0, n).

    A bottom-up merge sort counts them, one pass per level. Rows are padded
    to a power of two m with a value above every entry. At level w each
    block of 2w holds two sorted halves; the right half's keys are tagged
    with bit w (below the value, above the tags of earlier levels), so a
    stable sort of the block merges the halves and puts every right entry
    after the left entries equal to it. A right entry at block position p
    that is the j-th right entry then sits above p + 1 - j left entries and
    below the other w - (p + 1 - j), so summed over j the block has
    w(3w - 1)/2 inversions minus the positions of its right entries.
    O(n log n) per row, and no n x n array.
    """
    rows, n = v.shape
    m = 1 << max(0, (n - 1).bit_length())
    key = np.full((rows, m), n * m, dtype=np.int64)
    key[:, :n] = v * m
    dis = np.zeros(rows, dtype=np.int64)
    w = 1
    while w < m:
        blocks = key.reshape(-1, 2 * w)
        blocks[:, w:] |= w
        blocks.sort(axis=1, kind="stable")
        right = (key & w) // w
        dis += m // (2 * w) * (3 * w * w - w) // 2 - right @ (np.arange(m) % (2 * w))
        w *= 2
    return dis


def _table_counts(xr: np.ndarray, yr: np.ndarray, dx: int, dy: int) -> tuple[np.ndarray, ...]:
    """Discordant and joint-tied pairs of each row pair of dense ranks below
    ``dx`` and ``dy``, from its dx x dy contingency table.

    One ``bincount`` builds every row's table. A pair is discordant when one
    point lies at a higher x level and a lower y level than the other, so a
    cell's discordant partners are the points strictly above it in x and
    strictly below it in y: one suffix cumsum in x and one prefix cumsum in
    y. O(n + dx * dy) per row pair.
    """
    rows = max(len(xr), len(yr))
    cell = (np.arange(rows)[:, None] * dx + xr) * dy + yr
    table = np.bincount(cell.ravel(), minlength=rows * dx * dy).reshape(rows, dx, dy)
    partners = np.zeros_like(table)
    partners[:, :-1, 1:] = table[:, :0:-1, :-1].cumsum(axis=1)[:, ::-1].cumsum(axis=2)
    dis = (table * partners).sum(axis=(1, 2))
    return dis, (table * (table - 1) // 2).sum(axis=(1, 2))


def _tau_from_ranks(xr, xtie, yr, ytie) -> np.ndarray:
    """Tau-b of each row pair of dense ranks and tied-pair counts (one side
    may be a single row, paired with every row of the other).

    Discordant and joint-tied pairs come from the contingency table
    (:func:`_table_counts`) when the rows' level counts satisfy dx * dy <= n,
    and otherwise from a sort of the joint ranks and :func:`_inversions`.
    Both counts are exact integers, so either path gives the same tau.
    """
    n = xr.shape[1]
    tot = n * (n - 1) // 2
    dx, dy = int(xr.max(initial=0)) + 1, int(yr.max(initial=0)) + 1
    if dx * dy <= n:
        dis, ntie = _table_counts(xr, yr, dx, dy)
    else:
        joint = np.sort(xr * n + yr, axis=1)
        dis, ntie = _inversions(joint % n), _tied_pairs(_run_starts(joint))
    s = tot - xtie - ytie + ntie - 2 * dis
    vx, vy = np.broadcast_arrays(tot - xtie, tot - ytie)
    live = (vx > 0) & (vy > 0)
    tau = np.full(live.shape, np.nan)
    tau[live] = s[live] / np.sqrt(vx[live]) / np.sqrt(vy[live])
    return np.clip(tau, -1.0, 1.0)


def _kendall_tau_b(a, b) -> np.ndarray:
    """Tau-b of each row of ``a`` against ``b``, one vector or a paired stack.

    Equals ``scipy.stats.kendalltau(a[r], b[r]).statistic`` row by row: the
    same exact tie-corrected count (Knight, JASA 61, 1966) in scipy's order
    of operations. A row that is all ties or holds a NaN gives NaN. Rows go
    in :func:`_blocks` of n cells a row; each block is ranked (O(n log n)
    per row) and counted by :func:`_tau_from_ranks`: from a contingency
    table in O(n + dx * dy) per row when the block's level counts satisfy
    dx * dy <= n, by merge-sort inversions in O(n log n) per row otherwise.
    O(block) memory either way.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, n = a.shape
    out = np.empty(rows)
    fixed = _dense_ranks(b[None, :]) if b.ndim == 1 else None
    for block in _blocks(rows, n):
        y = fixed or _dense_ranks(b[block])
        out[block] = _tau_from_ranks(*_dense_ranks(a[block]), *y)
    return out


def _centred(rows: np.ndarray, method: str) -> np.ndarray:
    """Rows of a 2-D stack centred, after average ranking under Spearman."""
    if method == "spearman":
        from scipy.stats import rankdata

        rows = rankdata(rows, axis=1)
    elif method != "pearson":
        raise ValueError(f"unknown correlation method: {method!r}")
    return rows - rows.mean(axis=1, keepdims=True)


def _paired_corr(a, b, method: str) -> np.ndarray:
    """Correlation of each row of ``a`` with ``b``, one vector or a paired stack;
    NaN where either side is constant. Kendall is ``_kendall_tau_b``; Pearson
    and Spearman normalise after the product, as ``np.corrcoef`` does."""
    if method == "kendall":
        return _kendall_tau_b(a, b)
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    za, zb = _centred(a, method), _centred(b, method)
    sx, sy = np.sqrt((za * za).sum(axis=1)), np.sqrt((zb * zb).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (za * zb).sum(axis=1) / sx / sy
    # a constant row can centre to rounding noise, so test it directly
    flat = np.all(a == a[:, :1], axis=1) | np.all(b == b[:, :1], axis=1)
    return np.clip(np.where(flat, np.nan, r), -1.0, 1.0)


def pairwise_correlation(rows, ids=None, method: str = "spearman") -> CorrMatrix:
    """Correlation matrix over the rows of a p x n score table.

    Spearman uses average ranks; Kendall is the tie-corrected tau-b.
    Zero-variance series produce NaN entries and are listed in
    ``degenerate_ids``.
    """
    table = np.asarray(rows, dtype=float)
    if table.ndim != 2:
        raise ValueError("expected a 2-D score table (series as rows)")
    p, n = table.shape
    _count("paired observations", n, 3)
    if ids is None:
        ids = [f"series_{i}" for i in range(p)]
    ids = [str(i) for i in ids]
    flat = np.all(table == table[:, :1], axis=1)
    live = np.flatnonzero(~flat)
    values = np.full((p, p), np.nan)
    if method == "kendall":
        # rank each live series once, then count its pairs a block at a time
        ranks, ties = _dense_ranks(table[live])
        i, j = np.triu_indices(live.size, 1)
        for block in _blocks(i.size, n):
            a, b = i[block], j[block]
            tau = _tau_from_ranks(ranks[a], ties[a], ranks[b], ties[b])
            values[live[a], live[b]] = values[live[b], live[a]] = tau
    else:
        z = _centred(table[live], method)
        # Normalise after the product, as np.corrcoef does: centred ranks are
        # multiples of 1/2, so their products sum exactly in any order and
        # small or zero Spearman values keep full relative precision.
        gram = z @ z.T
        scale = np.sqrt(np.diag(gram))
        r = gram / scale[:, None] / scale[None, :]
        # mirror the upper triangle so the matrix is exactly symmetric
        r = np.triu(np.clip(r, -1.0, 1.0), 1)
        r += r.T
        values[np.ix_(live, live)] = r
    values[live, live] = 1.0
    degenerate = tuple(ids[i] for i in np.flatnonzero(flat))
    return CorrMatrix(tuple(ids), values, method, degenerate)


def correlation_ci(
    x,
    y,
    method: str = "spearman",
    iterations: int = 10000,
    seed: int = 0,
) -> tuple[float, float]:
    """95% percentile bootstrap interval for a pairwise correlation.

    Each block of :func:`_resamples` is scored in one ``_paired_corr`` call,
    whose NaN for a constant side marks the resamples that
    :func:`_percentile_interval` drops: O(R n) for Pearson and O(R n log n)
    for Spearman and Kendall, R = ``iterations``, in O(``_CELL_BUDGET``)
    memory per block. Non-finite ``x`` or ``y`` is rejected.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    _count("paired observations", x.size, 3)
    stats = [_paired_corr(x[idx], y[idx], method) for idx in _resamples(seed, iterations, x.size)]
    return _percentile_interval(np.concatenate(stats))


def partial_correlation(x, y, z, method: str = "spearman") -> float:
    """Correlation of x and y after regressing out the covariate z.

    Under ``spearman`` all three vectors are rank-transformed first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if not x.shape == y.shape == z.shape or x.ndim != 1:
        raise ValueError("x, y, z must be equal-length vectors")
    if x.size < 10:
        raise ValueError("partial correlation needs at least ten observations")
    if np.all(z == z[0]):
        raise ValueError("covariate z is constant")
    if method not in ("pearson", "spearman"):
        raise ValueError(f"unsupported method for partial correlation: {method!r}")
    x, y, z = _centred(np.vstack([x, y, z]), method)
    design = np.column_stack([np.ones_like(z), z])
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    # both series fully explained by z: no residual signal left to correlate
    tol = 1e-8 * max(np.std(x), np.std(y), 1.0)
    if np.std(rx) < tol or np.std(ry) < tol:
        return 0.0
    return float(_paired_corr(rx[None], ry, "pearson")[0])


def stratified_correlation(x, y, strata, levels=None):
    """Per-stratum Spearman correlations.

    Returns a list of ``(label, n, rho, reliable)`` records; groups of fewer
    than five members are flagged unreliable, and explicitly requested
    ``levels`` with no members are omitted with a warning.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    strata = np.asarray(strata)
    if not x.shape == y.shape == strata.shape:
        raise ValueError("x, y, strata must align")
    if levels is None:
        levels = sorted(set(strata.tolist()), key=str)
    out = []
    for label in levels:
        mask = strata == label
        n = int(mask.sum())
        if n == 0:
            warnings.warn(f"stratum {label!r} is empty; omitted")
            continue
        rho = float(_paired_corr(x[mask][None], y[mask], "spearman")[0]) if n >= 3 else np.nan
        out.append((label, n, rho, n >= 5))
    return out


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64 Gauss-Legendre nodes and weights, on first use, not at import."""
    return np.polynomial.legendre.leggauss(64)


def _orthant(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P(Z1 > h, Z2 > k) for standard bivariate normals, one value per pair.

    Uses the integral of the bivariate density over the correlation parameter
    from 0 to rho, by one-dimensional Gauss-Legendre quadrature (64 nodes).
    """
    from scipy.special import ndtr

    nodes, weights = _gauss_legendre()
    ch, ck = ndtr(h), ndtr(k)
    r = 0.5 * rho[:, None] * (nodes + 1.0)
    onem = 1.0 - r * r
    h2, k2 = h[:, None], k[:, None]
    integrand = np.exp(-(h2 * h2 - 2.0 * h2 * k2 * r + k2 * k2) / (2.0 * onem)) / np.sqrt(onem)
    return 1.0 - ch - ck + (ch * ck + 0.5 * rho * (integrand @ weights) / (2.0 * np.pi))


def _density(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Bivariate normal density at (h, k): the derivative of ``_orthant`` in rho."""
    onem = 1.0 - rho * rho
    return np.exp(-(h * h - 2.0 * h * k * rho + k * k) / (2.0 * onem)) / (
        2.0 * np.pi * np.sqrt(onem)
    )


def _solve_rho(h: np.ndarray, k: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Root in rho of ``_orthant(h, k, rho) = target`` for every pair at once.

    Newton's method from rho = 0, keeping a bracket per pair that the root
    stays inside (the orthant probability increases with rho). A step that
    leaves the current bracket is replaced by its midpoint. A pair stops once
    its step is at most 1e-12. Callers pass only pairs whose root lies inside
    [-_RHO_BRACKET, _RHO_BRACKET].
    """
    lo = np.full(h.shape, -_RHO_BRACKET)
    hi = np.full(h.shape, _RHO_BRACKET)
    rho = np.zeros(h.shape)
    todo = np.arange(h.size)
    for _ in range(200):
        if todo.size == 0:
            break
        r, hh, kk = rho[todo], h[todo], k[todo]
        f = _orthant(hh, kk, r) - target[todo]
        lo[todo] = np.where(f < 0.0, r, lo[todo])
        hi[todo] = np.where(f > 0.0, r, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = r - f / _density(hh, kk, r)
        inside = (new > lo[todo]) & (new < hi[todo])
        new = np.where(inside, new, 0.5 * (lo[todo] + hi[todo]))
        rho[todo] = new
        todo = todo[np.abs(new - r) > 1e-12]
    return rho


def _tetrachoric_pairs(n11, n10, n01, n00) -> np.ndarray:
    """Tetrachoric rho for each 2x2 table given by aligned count arrays.

    Every table must have both margins strictly inside (0, n).
    """
    from scipy.special import ndtri

    n = n11 + n10 + n01 + n00
    rho = np.where((n11 == 0.0) | (n00 == 0.0), -_RHO_CLAMP, _RHO_CLAMP)
    fit = np.flatnonzero((n11 > 0.0) & (n00 > 0.0) & (n10 > 0.0) & (n01 > 0.0))
    h = ndtri(1.0 - (n11[fit] + n10[fit]) / n[fit])
    k = ndtri(1.0 - (n11[fit] + n01[fit]) / n[fit])
    target = n11[fit] / n[fit]
    # a root outside the bracket is clamped like a zero cell
    below = _orthant(h, k, np.full(fit.size, -_RHO_BRACKET)) > target
    above = _orthant(h, k, np.full(fit.size, _RHO_BRACKET)) < target
    rho[fit[below]] = -_RHO_CLAMP
    rho[fit[above & ~below]] = _RHO_CLAMP
    inner = ~(below | above)
    fit, h, k, target = fit[inner], h[inner], k[inner], target[inner]
    root = _solve_rho(h, k, target)
    residual = _orthant(h, k, root) - target
    bad = ~(np.abs(residual) < 1e-6)
    if bad.any():
        worst = residual[bad][np.argmax(np.abs(residual[bad]))]
        raise ValueError(f"tetrachoric root misses the joint pass rate by {worst:.2e}")
    rho[fit] = root
    return rho


def tetrachoric(table) -> float:
    """Latent-normal correlation from a 2x2 contingency table.

    Table layout ``[[n11, n10], [n01, n00]]`` with n11 = both pass. Solves for
    the rho whose orthant probability at the threshold pair matches the
    observed joint pass frequency. A zero cell clamps the result to +/-0.999.
    """
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2) or t.min() < 0:
        raise ValueError("expected a 2x2 table of nonnegative counts")
    n11, n10 = t[0]
    n01, n00 = t[1]
    n = t.sum()
    p_row = (n11 + n10) / n
    p_col = (n11 + n01) / n
    if p_row in (0.0, 1.0) or p_col in (0.0, 1.0):
        raise ValueError("tetrachoric undefined: zero marginal")
    return float(_tetrachoric_pairs(*t.reshape(4, 1))[0])


def tetrachoric_matrix(m: ScoreMatrix) -> np.ndarray:
    """Model x model tetrachoric correlation matrix over task outcomes.

    All 2x2 tables come from one product V^T V of the 0/1 grid, and all
    pairs are solved together: O(T * N^2) to count, O(N^2) per Newton step.
    """
    if m.kind != "binary":
        raise ValueError("tetrachoric correction requires a binary matrix")
    if m.n_models < 3:
        raise ValueError("tetrachoric ED needs at least three models")
    values = m.dense_values()
    passes = values.sum(axis=0)
    constant = (passes == 0.0) | (passes == m.n_tasks)
    if constant.any():
        model = m.model_ids[int(np.argmax(constant))]
        raise ValueError(f"model {model!r} has a constant outcome column (zero marginal)")
    i, j = np.triu_indices(m.n_models, 1)
    n11 = (values.T @ values)[i, j]
    n10 = passes[i] - n11
    n01 = passes[j] - n11
    n00 = m.n_tasks - passes[i] - passes[j] + n11
    out = np.eye(m.n_models)
    out[i, j] = out[j, i] = _tetrachoric_pairs(n11, n10, n01, n00)
    return out


def tetrachoric_ed(m: ScoreMatrix) -> float:
    """Participation ratio of the clipped tetrachoric-correlation eigenvalues."""
    corr = tetrachoric_matrix(m)
    eig = np.linalg.eigvalsh(corr)
    return participation_ratio(np.clip(eig, 0.0, None))


def hierarchical_cluster(
    c: CorrMatrix,
    cut_height: float | None = None,
    n_groups: int | None = None,
) -> ClusterGrouping:
    """Average-linkage agglomeration over distance 1 - |r|.

    Ties are broken by the lexicographically smallest member-id pair, which
    makes the tree invariant to input ordering. Each merge costs O(N^2).
    Exactly one of ``cut_height`` and ``n_groups`` selects the flat partition
    (cut at a height keeps merges strictly below it).
    """
    if c.has_undefined:
        raise ValueError(
            f"undefined correlations present (degenerate: {list(c.degenerate_ids)})"
        )
    if (cut_height is None) == (n_groups is None):
        raise ValueError("specify exactly one of cut_height or n_groups")
    ids = c.ids
    # sums[i, j] is the summed 1 - |r| over the member pairs of the clusters
    # held in slots i and j; merging j into i adds row and column j into i.
    sums = 1.0 - np.abs(c.values)
    sizes = np.ones(len(ids))
    members: list[tuple[str, ...]] = [(i,) for i in ids]
    open_pairs = np.triu(np.ones(sums.shape, dtype=bool), 1)
    merges: list[tuple[tuple[str, ...], tuple[str, ...], float]] = []
    for _ in range(len(ids) - 1):
        link = np.where(open_pairs, sums / np.outer(sizes, sizes), np.inf)
        d = link.min()
        a, b, i, j = min(
            (*sorted((members[i], members[j])), i, j)
            for i, j in np.argwhere(link == d).tolist()
        )
        merges.append((a, b, float(d)))
        sums[i] += sums[j]
        sums[:, i] += sums[:, j]
        sizes[i] += sizes[j]
        open_pairs[j] = open_pairs[:, j] = False
        members[i] = tuple(sorted(a + b))

    groups: list[tuple[str, ...]] = [(i,) for i in ids]
    for a, b, d in merges:
        if n_groups is not None:
            if len(groups) <= n_groups:
                break
        elif not d < cut_height:
            break
        groups = [g for g in groups if g not in (a, b)]
        groups.append(tuple(sorted(a + b)))
    return ClusterGrouping(
        ids=ids, merges=tuple(merges), groups=tuple(sorted(groups))
    )


def redundancy_flags(
    c: CorrMatrix,
    hi: float = 0.9,
    vet: float = 0.7,
    comp: float = -0.3,
) -> RedundancyFlags:
    """Flag pairs above the redundancy/vetting thresholds or below the
    complementarity threshold; each list keeps its pairs i < j in row-major
    order, and a pair whose correlation is not finite is never flagged."""
    i, j = np.triu_indices(len(c.ids), 1)
    rho = c.values[i, j]
    keep = np.isfinite(rho)
    i, j, rho = i[keep], j[keep], rho[keep]

    def pairs(mask: np.ndarray) -> tuple[tuple[str, str, float], ...]:
        rows = zip(i[mask].tolist(), j[mask].tolist(), rho[mask].tolist())
        return tuple((c.ids[a], c.ids[b], r) for a, b, r in rows)

    return RedundancyFlags(pairs(rho > hi), pairs(rho > vet), pairs(rho < comp))


def mean_pairwise_hamming(m: ScoreMatrix) -> float:
    """Mean disagreement fraction over model pairs of a binary matrix."""
    if m.kind != "binary":
        raise ValueError("Hamming baseline requires a binary matrix")
    values = m.dense_values()
    if m.n_models < 2:
        raise ValueError("need at least two models")
    agree = values.T @ values + (1.0 - values).T @ (1.0 - values)
    disagree = m.n_tasks - agree[np.triu_indices(m.n_models, 1)]
    return float(np.mean(disagree / m.n_tasks))


def save_corr_csv(c: CorrMatrix, path) -> None:
    """Serialize a correlation matrix to square CSV with header ids."""
    _write_csv_grid(path, "id", c.ids, c.ids, c.values)
