"""Centering, singular spectra, and spectral summary statistics.

The core quantity is the participation ratio of the squared singular
spectrum of a centered score grid: a closed-form count of effectively
participating components. The collision-entropy route and the Shannon
effective rank are provided alongside for cross-checks. One kernel, the
smaller-side Gram matrix G of the centered grid, serves them all: ED is
tr(G)^2 / ||G||_F^2 and spectra are sqrt(eigvalsh(G)). Only
:func:`principal_components`, which needs singular vectors, runs an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_io import ScoreMatrix

CENTERING_SCHEMES = ("task", "model", "double", "none")

# Centering leaves one near-null direction, which the Gram kernel reports near
# 1e-7 x the top singular value (eigenvalue rounding of order eps x top**2);
# singular values this far below the top one are counted as zero.
ZERO_SIGMA_RTOL = 1e-6

__all__ = [
    "CENTERING_SCHEMES",
    "PcDecomposition",
    "Spectrum",
    "center",
    "ed_of_correlation",
    "ed_of_matrix",
    "effective_dimensionality",
    "participation_ratio",
    "pc1_fraction",
    "principal_components",
    "renyi2_ed",
    "shannon_effective_rank",
    "singular_spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing, nonnegative singular values of a centered grid."""

    sigmas: np.ndarray

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigmas, dtype=float).ravel()
        if sig.size == 0:
            raise ValueError("empty spectrum")
        if not np.all(np.isfinite(sig)):
            raise ValueError("spectrum must be finite")
        if sig.min() < 0.0:
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(sig) > 1e-12 * max(sig.max(), 1.0)):
            raise ValueError("singular values must be nonincreasing")
        sig = np.sort(sig)[::-1]
        sig.flags.writeable = False
        object.__setattr__(self, "sigmas", sig)

    def __len__(self) -> int:
        return int(self.sigmas.size)


@dataclass(frozen=True)
class PcDecomposition:
    """Leading principal axes of a centered grid.

    ``components`` is T x k (orthonormal task loadings), ``scores`` is k x N,
    and ``variance_fraction`` is the share of total variance per component.
    Each loading's largest-magnitude entry is oriented positive.
    """

    components: np.ndarray
    scores: np.ndarray
    variance_fraction: np.ndarray


def center(m, scheme: str = "task") -> np.ndarray:
    """Remove row/column means; ``task`` subtracts each task's mean score.

    The package's one constancy rule: a row whose cells are all equal (max ==
    min) centers to exactly 0.0 under ``task`` and ``double`` (before the
    column step), as does such a column under ``model``; the inexact mean of,
    say, 0.1 would leave rounding residue. The same max and min reject NaN
    and inf, at one max and one min per row (column) beyond the subtraction.
    A (..., T, N) stack centers each of its grids.
    """
    if scheme not in CENTERING_SCHEMES:
        raise ValueError(f"unknown centering scheme: {scheme!r} (use one of {CENTERING_SCHEMES})")
    x = m.dense_values() if isinstance(m, ScoreMatrix) else np.asarray(m, dtype=float)
    axis = -2 if scheme == "model" else -1
    hi, lo = x.max(axis=axis), x.min(axis=axis)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError("centering requires a complete matrix (no missing cells)")
    if scheme == "none":
        return x.copy()
    out = x - x.mean(axis=axis, keepdims=True)
    (out.swapaxes(-1, -2) if axis == -2 else out)[hi == lo] = 0.0
    if scheme == "double":
        out -= out.mean(axis=-2, keepdims=True)
    return out


def _zscore_columns(table: np.ndarray, ids, kind: str = "benchmark") -> np.ndarray:
    """Each column of ``table`` centered and divided by its root mean square,
    on its own, so a column subset's z is that subset's z bit for bit; a
    constant column centers to exact zeros and raises with its id."""
    z = center(np.ascontiguousarray(table), "model")
    std = np.sqrt((z * z).sum(axis=0) / z.shape[0])
    if not std.all():
        raise ValueError(f"{kind} {ids[int(np.argmin(std))]!r} has zero variance")
    z /= std
    return z


def _gram(x: np.ndarray) -> np.ndarray:
    """Gram matrix of ``x`` on its smaller side: min(T, N) square, for each
    grid of a (..., T, N) stack."""
    xt = x.swapaxes(-1, -2)
    return xt @ x if x.shape[-2] >= x.shape[-1] else x @ xt


def _column_labels(x: np.ndarray, scheme: str) -> np.ndarray:
    """Label each column of ``x`` by the first column equal to it; under
    ``double`` by the first with equal differences from its first cell, which
    are correctly rounded values of equal reals when two columns differ by a
    constant. Cells are finite and adding 0.0 turns -0.0 into 0.0, so equal
    bytes mean equal cells. The columns are hashed as the rows of one
    transposed copy, freed before the caller centers the grid.
    """
    cols = np.array(x.T, order="C")
    if scheme == "double":
        cols -= cols[:, :1]
    cols += 0.0
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(col.tobytes(), j) for j, col in enumerate(cols)])


def _column_resample_eds(x: np.ndarray, subsets, scheme: str) -> np.ndarray:
    """ED of ``x[:, idx]`` centered by ``scheme``, for each ``idx`` in ``subsets``.

    A degenerate subset, one with no spectrum, gets NaN and no
    :func:`ed_of_matrix` call. Under ``task`` and ``double`` it is
    degenerate exactly when all its :func:`_column_labels` are equal. The
    labels decide, not the factor: three equal continuous columns
    task-center to exactly zero, but their copies in R differ by rounding.
    Under ``model`` and ``none`` each column is centered alone, so equal
    columns keep a rank-one spectrum; a subset is degenerate only when every
    column centers to zero: constant under ``model``, all zero under ``none``.

    Every other ED is :func:`ed_of_matrix` of the ``idx`` columns of the
    min(T, N) x N factor R of a QR decomposition of the full grid Xc centered
    by ``scheme``. R^T R = Xc^T Xc, so the column Gram of R[:, idx] is that of
    Xc[:, idx], and a zero column of Xc stays exactly zero in R. Under
    ``model`` and ``none`` that Gram is the subset's own. Under ``task`` and
    ``double``, Xc[:, idx] differs from the centered subset only by a
    constant along each task row, so centering the rows of R[:, idx] gives
    the centered subset's Gram exactly. Cost: O(T * N * min(T, N)) once, then
    O(min(T, N) * n * min(T, N, n)) per subset of n columns, with no T x n
    array per subset when T > N.
    """
    if scheme in ("task", "double"):
        labels = _column_labels(x, scheme)
        dead = [(labels[idx] == labels[idx[0]]).all() for idx in subsets]
    else:
        hi, lo = x.max(axis=0), x.min(axis=0)
        zero = hi == lo if scheme == "model" else (hi == 0.0) & (lo == 0.0)
        dead = [zero[idx].all() for idx in subsets]
    factor = np.linalg.qr(center(x, scheme), mode="r")
    subset_scheme = "task" if scheme in ("task", "double") else "none"
    return np.array([
        np.nan if d else ed_of_matrix(factor[:, idx], subset_scheme)
        for d, idx in zip(dead, subsets)
    ])


def singular_spectrum(x) -> Spectrum:
    """Singular values of a real matrix, largest first, from its Gram matrix.

    Values below about 1e-7 x the top one (such as the null direction that
    centering leaves) are accurate only in absolute terms.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix entries must be finite")
    eig = np.linalg.eigvalsh(_gram(x))[::-1]
    return Spectrum(np.sqrt(np.clip(eig, 0.0, None)))


def _nonzero_lambdas(s: Spectrum) -> np.ndarray:
    sig = s.sigmas
    top = sig[0]
    if top <= 0.0:
        raise ValueError("all-zero spectrum: effective dimensionality undefined")
    lam = sig[sig > ZERO_SIGMA_RTOL * top] ** 2
    return lam


def participation_ratio(weights) -> float:
    """(sum w)^2 / sum w^2 over a nonnegative weight vector."""
    w = np.asarray(weights, dtype=float).ravel()
    w = w[w > 0.0]
    if w.size == 0:
        raise ValueError("participation ratio needs at least one positive weight")
    total = w.sum()
    return float(total * total / np.dot(w, w))


def effective_dimensionality(s: Spectrum) -> float:
    """Participation ratio of the squared spectrum."""
    return participation_ratio(_nonzero_lambdas(s))


def renyi2_ed(s: Spectrum) -> float:
    """exp of the collision entropy of the normalized eigenvalue spectrum.

    Identical to :func:`effective_dimensionality` up to rounding.
    """
    lam = _nonzero_lambdas(s)
    lam = lam / lam.sum()
    h2 = -np.log(np.dot(lam, lam))
    return float(np.exp(h2))


def shannon_effective_rank(s: Spectrum) -> float:
    """exp of the Shannon entropy of the normalized eigenvalue spectrum."""
    lam = _nonzero_lambdas(s)
    lam = lam / lam.sum()
    h1 = -float(np.dot(lam, np.log(lam)))
    return float(np.exp(h1))


def pc1_fraction(s: Spectrum) -> float:
    """Share of total variance captured by the leading component."""
    lam = _nonzero_lambdas(s)
    return float(lam[0] / lam.sum())


def _sums_ed(trace: np.ndarray, sq_norm: np.ndarray) -> np.ndarray:
    """ED from its two Gram sums, tr(G)^2 / ||G||_F^2; a zero trace raises."""
    if (trace <= 0.0).any():
        raise ValueError("all-zero spectrum: effective dimensionality undefined")
    return trace * trace / sq_norm


def _gram_ed(gram: np.ndarray) -> np.ndarray:
    """tr(G)^2 / ||G||_F^2 of each Gram matrix in a (..., n, n) stack."""
    row = gram.reshape(gram.shape[:-2] + (1, -1))
    return _sums_ed(gram.trace(axis1=-2, axis2=-1), (row @ row.swapaxes(-1, -2))[..., 0, 0])


def ed_of_matrix(m, scheme: str = "task") -> float:
    """Centered-spectrum effective dimensionality, tr(G)^2 / ||G||_F^2."""
    return float(_gram_ed(_gram(center(m, scheme))))


def principal_components(x, k: int) -> PcDecomposition:
    """Top-k principal axes of a (centered) real matrix."""
    x = np.asarray(x, dtype=float)
    t, n = x.shape
    if not 1 <= k <= min(t, n):
        raise ValueError(f"k must lie in [1, {min(t, n)}], got {k}")
    u, sig, vt = np.linalg.svd(x, full_matrices=False)
    for i in range(k):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0.0:
            u[:, i] = -u[:, i]
            vt[i] = -vt[i]
    lam = sig**2
    total = lam.sum()
    frac = lam[:k] / total if total > 0.0 else np.zeros(k)
    scores = sig[:k, None] * vt[:k]
    return PcDecomposition(
        components=u[:, :k].copy(), scores=scores, variance_fraction=frac
    )


def ed_of_correlation(c) -> float:
    """Participation ratio of a correlation matrix's eigenvalues."""
    values = np.asarray(getattr(c, "values", c), dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.allclose(values, values.T, atol=1e-8):
        raise ValueError("correlation matrix must be symmetric")
    eig = np.linalg.eigvalsh(values)
    if eig.min() < -1e-8 * max(1.0, eig.max()):
        raise ValueError("correlation matrix is indefinite beyond tolerance")
    return participation_ratio(np.clip(eig, 0.0, None))
