"""Correctness checks that do not call spectradiag.

Every reference value here is computed with plain NumPy or SciPy from the
inputs the workload generated, and every check asserts an invariant rather
than a seeded digest, so a legitimate change of random stream inside the
program (for example ``Generator.permuted``) keeps passing.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import kendalltau, multivariate_normal, norm, spearmanr

ED_RTOL = 1e-9
ORTHANT_ATOL = 1e-6
# spectradiag.association.tetrachoric returns exactly +/-RHO_CLAMP, and not a
# fitted root, on a zero cell or when no root lies in its search bracket.
RHO_CLAMP = 0.999


def expect(condition, message: str) -> None:
    """Raise ``AssertionError`` unless ``condition`` holds (survives ``-O``)."""
    if not condition:
        raise AssertionError(message)


def expect_close(actual, expected, rtol: float, what: str, atol: float = 0.0) -> None:
    actual = float(actual)
    expected = float(expected)
    expect(
        np.isfinite(actual) and abs(actual - expected) <= atol + rtol * abs(expected),
        f"{what}: got {actual!r}, expected {expected!r} (rtol {rtol}, atol {atol})",
    )


def ed(x) -> float:
    """Participation ratio of the squared singular values of the task-centered grid."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean(axis=1, keepdims=True)
    lam = np.linalg.svd(xc, compute_uv=False) ** 2
    return float(lam.sum() ** 2 / np.dot(lam, lam))


def variance_fractions(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    lam = np.linalg.svd(x - x.mean(axis=1, keepdims=True), compute_uv=False) ** 2
    return lam / lam.sum()


def mp_null(t: int, n: int) -> float:
    return t * n / (t + n)


def impute_column_means(values, missing) -> np.ndarray:
    """Each missing cell replaced by its column's mean over observed cells."""
    out = np.array(values, dtype=float)
    observed = ~missing
    means = np.where(observed, out, 0.0).sum(axis=0) / observed.sum(axis=0)
    out[missing] = np.broadcast_to(means, out.shape)[missing]
    return out


def zscore_rows(table) -> np.ndarray:
    """Each row minus its mean, divided by its (population) sd where nonzero."""
    table = np.asarray(table, dtype=float)
    sd = table.std(axis=1, keepdims=True)
    return (table - table.mean(axis=1, keepdims=True)) / np.where(sd > 0.0, sd, 1.0)


def mean_rank_tau(values, rows) -> float:
    """Kendall tau-b between model means over ``rows`` and over all tasks."""
    values = np.asarray(values, dtype=float)
    return float(kendalltau(values[list(rows)].mean(axis=0), values.mean(axis=0)).statistic)


def greedy_candidates(centered: np.ndarray, chosen) -> np.ndarray:
    """ED of ``chosen + [t]`` for every task t, from the task-side Gram sums.

    Entries for tasks already in ``chosen`` are -inf.
    """
    chosen = list(chosen)
    diag = np.einsum("ij,ij->i", centered, centered)
    cross = centered[chosen] @ centered.T if chosen else np.zeros((0, centered.shape[0]))
    sub = cross[:, chosen]
    trace = diag[chosen].sum() + diag
    fro = float(np.sum(sub * sub)) + 2.0 * np.sum(cross * cross, axis=0) + diag * diag
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(fro > 0.0, trace * trace / fro, 0.0)
    out[chosen] = -np.inf
    return out


def point_biserial(values) -> np.ndarray:
    """Correlation of each task row with the model mean score (0 for flat rows)."""
    values = np.asarray(values, dtype=float)
    totals = values.mean(axis=0) - values.mean()
    rows = values - values.mean(axis=1, keepdims=True)
    denom = np.linalg.norm(rows, axis=1) * np.linalg.norm(totals)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, rows @ totals / denom, 0.0)


def orthant_probability(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k) for a standard bivariate normal, from SciPy."""
    cov = [[1.0, rho], [rho, 1.0]]
    return float(
        multivariate_normal.cdf([-h, -k], mean=[0.0, 0.0], cov=cov, abseps=1e-12, releps=1e-12)
    )


def check_tetrachoric_pair(a: np.ndarray, b: np.ndarray, rho: float) -> None:
    """The fitted rho reproduces the observed both-pass share to 1e-6."""
    n = a.size
    p_a, p_b = a.mean(), b.mean()
    target = np.count_nonzero(a & b) / n
    h, k = norm.ppf(1.0 - p_a), norm.ppf(1.0 - p_b)
    expect_close(
        orthant_probability(h, k, rho), target, 0.0, "tetrachoric orthant probability",
        atol=ORTHANT_ATOL,
    )


def spearman(x, y) -> float:
    return float(spearmanr(x, y).statistic)


def kendall(x, y) -> float:
    return float(kendalltau(x, y).statistic)


def mann_kendall_s(series) -> int:
    x = np.asarray(series, dtype=float)
    return int(np.sign(x[None, :] - x[:, None])[np.triu_indices(x.size, 1)].sum())


def mann_kendall_tau(series) -> float:
    x = np.asarray(series, dtype=float)
    n = x.size
    _, ties = np.unique(x, return_counts=True)
    d1 = n * (n - 1) / 2.0
    d2 = d1 - float((ties * (ties - 1) / 2.0).sum())
    return mann_kendall_s(x) / np.sqrt(d1 * d2)


def hamming_mean(binary) -> float:
    """Mean disagreement share over all model pairs of a 0/1 grid."""
    x = np.asarray(binary, dtype=float)
    t, n = x.shape
    ones = x.sum(axis=0)
    agree11 = x.T @ x
    disagree = (ones[:, None] + ones[None, :] - 2.0 * agree11) / t
    return float(disagree[np.triu_indices(n, 1)].mean())
