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


def _as_array(m) -> np.ndarray:
    if isinstance(m, ScoreMatrix):
        return m.dense_values()
    return np.asarray(m, dtype=float)


def center(m, scheme: str = "task") -> np.ndarray:
    """Remove row/column means; ``task`` subtracts each task's mean score."""
    x = _as_array(m)
    if not np.all(np.isfinite(x)):
        raise ValueError("centering requires a complete matrix (no missing cells)")
    if scheme == "none":
        return x.copy()
    if scheme == "task":
        return x - x.mean(axis=1, keepdims=True)
    if scheme == "model":
        return x - x.mean(axis=0, keepdims=True)
    if scheme == "double":
        rowed = x - x.mean(axis=1, keepdims=True)
        return rowed - rowed.mean(axis=0, keepdims=True)
    raise ValueError(f"unknown centering scheme: {scheme!r} (use one of {CENTERING_SCHEMES})")


def _gram(x: np.ndarray) -> np.ndarray:
    """Gram matrix of ``x`` on its smaller side: min(T, N) square."""
    return x.T @ x if x.shape[0] >= x.shape[1] else x @ x.T


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


def ed_of_matrix(m, scheme: str = "task") -> float:
    """Centered-spectrum effective dimensionality, tr(G)^2 / ||G||_F^2."""
    gram = _gram(center(m, scheme))
    trace = float(np.trace(gram))
    if trace <= 0.0:
        raise ValueError("all-zero spectrum: effective dimensionality undefined")
    return trace * trace / float(np.vdot(gram, gram))


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
