"""Ground-truth generators for validation.

Multidimensional 2PL item-response matrices with a known latent dimension,
i.i.d. null matrices for random-matrix calibration, and the rank-recovery
harness that checks ED ordering against the generating dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import _blocks, _paired_corr
from .matrix_io import ScoreMatrix
from .spectral import ed_of_matrix

LOADING_ORIENTATIONS = ("sphere", "positive")

__all__ = [
    "IrtSpec",
    "RankRecoveryReport",
    "gen_iid_matrix",
    "gen_irt_matrix",
    "rank_recovery_report",
]


@dataclass(frozen=True)
class IrtSpec:
    """Configuration of the 2PL generator.

    ``loading_orientation="sphere"`` draws task loadings uniformly on the
    k-sphere; ``"positive"`` folds them into the positive orthant, producing
    the positive manifold of real benchmarks (all tasks reward ability),
    which is required for mean-score rankings to be meaningful.
    """

    k: int
    tasks: int
    models: int
    discrimination_scale: float = 1.0
    difficulty_spread: float = 1.0
    loading_orientation: str = "sphere"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("latent dimension k must be >= 1")
        if self.k > min(self.tasks, self.models):
            raise ValueError("k cannot exceed min(tasks, models)")
        if self.discrimination_scale < 0.0 or self.difficulty_spread < 0.0:
            raise ValueError("scales must be nonnegative")
        if self.loading_orientation not in LOADING_ORIENTATIONS:
            raise ValueError(
                f"loading_orientation must be one of {LOADING_ORIENTATIONS}"
            )


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from one exp that never overflows: e = exp(-|x|),
    then 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def gen_irt_matrix(spec: IrtSpec) -> ScoreMatrix:
    """Binary pass/fail matrix from a k-dimensional 2PL latent model.

    Abilities are standard normal in k dimensions; each task gets a loading
    of fixed magnitude ``discrimination_scale`` and a normal difficulty with
    sd ``difficulty_spread``; pass probability is logistic(a.theta - b).

    The grid is built a block of task rows at a time, in the order and from
    the stream of one whole-grid draw: each block's uniforms are drawn into
    the grid's rows and compared there with the block's probabilities. A
    block is one of ``association._blocks`` at four cells a grid cell, so
    the four or so float temporaries of :func:`_logistic` stay within the
    budget and the working set is about the grid, its mask and one block.
    """
    rng = np.random.default_rng(spec.seed)
    theta = rng.standard_normal((spec.models, spec.k))
    raw = rng.standard_normal((spec.tasks, spec.k))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    loadings = raw / norms
    if spec.loading_orientation == "positive":
        loadings = np.abs(loadings)
    loadings = loadings * spec.discrimination_scale
    difficulty = rng.normal(0.0, spec.difficulty_spread, size=spec.tasks)
    values = np.empty((spec.tasks, spec.models))
    for block in _blocks(spec.tasks, 4 * spec.models):
        out = values[block]
        rng.random(out=out)
        np.less(out, _logistic(loadings[block] @ theta.T - difficulty[block, None]), out=out)
    digits_t = max(4, len(str(spec.tasks)))
    digits_m = max(3, len(str(spec.models)))
    return ScoreMatrix._owning(
        tuple(f"task_{i:0{digits_t}d}" for i in range(spec.tasks)),
        tuple(f"model_{j:0{digits_m}d}" for j in range(spec.models)),
        values,
        np.zeros(values.shape, dtype=bool),
    )


def gen_iid_matrix(
    tasks: int,
    models: int,
    kind: str = "gaussian",
    p: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Raw i.i.d. matrix for null calibration (gaussian or bernoulli(p))."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((tasks, models))
    if kind == "bernoulli":
        if not 0.0 <= p <= 1.0:
            raise ValueError("bernoulli rate must lie in [0, 1]")
        return (rng.random((tasks, models)) < p).astype(float)
    raise ValueError(f"unknown iid matrix kind: {kind!r}")


@dataclass(frozen=True)
class RankRecoveryReport:
    """ED ordering against the generating dimension across seeds."""

    spearman_rho: float
    rho_sd: float
    per_seed_rho: tuple[float, ...]
    per_k_mean_ed: dict[int, float]
    overestimate_ratio: dict[int, float]


def rank_recovery_report(
    ks=(1, 2, 3, 5, 10, 20),
    seeds: int = 10,
    tasks: int = 500,
    models: int = 100,
    discrimination_scale: float = 2.0,
    difficulty_spread: float = 1.0,
) -> RankRecoveryReport:
    """Generate matrices per (k, seed), measure ED, report rank recovery.

    The per-seed Spearman correlation between k and ED is averaged across
    seeds; overestimate ratios are mean ED divided by the true k.
    """
    ks = tuple(ks)
    eds = np.empty((seeds, len(ks)))
    for ki, k in enumerate(ks):
        for s in range(seeds):
            spec = IrtSpec(
                k=k,
                tasks=tasks,
                models=models,
                discrimination_scale=discrimination_scale,
                difficulty_spread=difficulty_spread,
                seed=int(np.random.default_rng((k, s)).integers(2**31)),
            )
            eds[s, ki] = ed_of_matrix(gen_irt_matrix(spec).dense_values())
    per_seed = tuple(_paired_corr(eds, ks, "spearman").tolist())
    mean_ed = {k: float(eds[:, ki].mean()) for ki, k in enumerate(ks)}
    return RankRecoveryReport(
        spearman_rho=float(np.mean(per_seed)),
        rho_sd=float(np.std(per_seed)),
        per_seed_rho=per_seed,
        per_k_mean_ed=mean_ed,
        overestimate_ratio={k: mean_ed[k] / k for k in ks},
    )
