"""Greedy and baseline task selection, compression curves, and probes.

The greedy selector adds, at each step, the task with the largest marginal
increase in the centered-submatrix ED. Candidate EDs come from incremental
trace/Frobenius updates of the task-side Gram matrix, one Gram column per
added task, so no T x T matrix is formed; tests pin them against full SVD
recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_io import ScoreMatrix
from .spectral import center

SELECTION_METHODS = (
    "ed_greedy",
    "random",
    "max_variance",
    "irt_discrimination",
    "k_medoids",
    "two_stage",
)

COMPRESSION_FRACTIONS = (
    0.01, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20,
    0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00,
)

__all__ = [
    "COMPRESSION_FRACTIONS",
    "CompressionCurve",
    "ProspectiveRow",
    "SELECTION_METHODS",
    "SelectionResult",
    "SubmodularityReport",
    "baseline_select",
    "compression_curve",
    "ed_greedy",
    "prospective_split_eval",
    "ranking_fidelity",
    "submodularity_probe",
]


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selected tasks with the per-step ED trajectory."""

    method: str
    selected: tuple[str, ...]
    ed_trajectory: tuple[float, ...]
    tau_vs_full: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected task ids must be unique")
        if len(self.ed_trajectory) != len(self.selected):
            raise ValueError("trajectory length must match the selection size")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "selected": list(self.selected),
            "ed_trajectory": list(self.ed_trajectory),
            "tau_vs_full": self.tau_vs_full,
        }


class _GramEvaluator:
    """Incremental participation-ratio bookkeeping over a fixed task pool.

    For a selected index set S the centered-submatrix ED equals
    tr(G_S)^2 / ||G_S||_F^2, where G = Xc Xc^T is the Gram matrix of the
    task-centered rows Xc. The full T x T matrix is never formed: the
    diagonal is kept as row norms, and adding task t computes the single
    column Xc x_t to update ``cross[j] = sum_{s in S} G[j, s]^2`` for every
    task j. Each addition costs O(T * N) time; memory beyond Xc is O(T).
    """

    def __init__(self, values: np.ndarray):
        self.xc = center(values, "task")
        self.diag = np.einsum("ij,ij->i", self.xc, self.xc)
        self.trace = 0.0
        self.fro2 = 0.0
        self.cross = np.zeros(values.shape[0])

    def candidate_ed(self, idx):
        """ED after adding task ``idx``; an index array gives one ED per entry."""
        d = self.diag[idx]
        ntr = self.trace + d
        nfro = self.fro2 + 2.0 * self.cross[idx] + d * d
        live = nfro > 0.0
        return np.where(live, ntr * ntr / np.where(live, nfro, 1.0), 0.0)

    def add(self, t: int) -> float:
        ed = float(self.candidate_ed(t))
        self.trace += self.diag[t]
        self.fro2 += 2.0 * self.cross[t] + self.diag[t] * self.diag[t]
        self.cross += (self.xc @ self.xc[t]) ** 2
        return ed


def _task_variances(values: np.ndarray) -> np.ndarray:
    return values.var(axis=1)


def _trajectory_and_result(
    m: ScoreMatrix,
    values: np.ndarray,
    order: list[int],
    method: str,
    seed: int | None,
) -> SelectionResult:
    ev = _GramEvaluator(values)
    trajectory = [ev.add(t) for t in order]
    selected = tuple(m.task_ids[t] for t in order)
    tau = ranking_fidelity(m, selected)
    return SelectionResult(
        method=method,
        selected=selected,
        ed_trajectory=tuple(trajectory),
        tau_vs_full=tau,
        seed=seed,
    )


def ed_greedy(m: ScoreMatrix, k: int) -> SelectionResult:
    """Iteratively add the task with the largest marginal ED gain.

    Deterministic: ED ties break by higher task variance, then by task id.
    """
    values = m.dense_values()
    n_tasks = m.n_tasks
    if not 1 <= k <= n_tasks:
        raise ValueError(f"budget k must lie in [1, {n_tasks}]")
    variances = _task_variances(values)
    if np.all(variances == 0.0):
        raise ValueError("all tasks are degenerate (zero variance)")
    ev = _GramEvaluator(values)
    id_rank = np.argsort(np.argsort(m.task_ids))
    remaining = np.arange(n_tasks)
    order: list[int] = []
    trajectory: list[float] = []
    for _ in range(k):
        eds = ev.candidate_ed(remaining)
        pos = np.lexsort((id_rank[remaining], -variances[remaining], -eds))[0]
        best_t = int(remaining[pos])
        trajectory.append(ev.add(best_t))
        remaining = np.delete(remaining, pos)
        order.append(best_t)
    selected = tuple(m.task_ids[t] for t in order)
    return SelectionResult(
        method="ed_greedy",
        selected=selected,
        ed_trajectory=tuple(trajectory),
        tau_vs_full=ranking_fidelity(m, selected),
        seed=None,
    )


def _discrimination(values: np.ndarray) -> np.ndarray:
    """Point-biserial correlation of each task with the model total score."""
    totals = values.mean(axis=0)
    out = np.zeros(values.shape[0])
    t_std = totals.std()
    if t_std == 0.0:
        return out
    tc = totals - totals.mean()
    for i, row in enumerate(values):
        r_std = row.std()
        if r_std > 0.0:
            out[i] = float(np.dot(row - row.mean(), tc) / (values.shape[1] * r_std * t_std))
    return out


def _profile_distances(values: np.ndarray) -> np.ndarray:
    """1 - |pearson| distances between task rows; degenerate rows sit at 1."""
    t = values.shape[0]
    std = values.std(axis=1)
    centered = values - values.mean(axis=1, keepdims=True)
    dist = np.ones((t, t))
    live = std > 0.0
    if live.any():
        sub = centered[live]
        norm = np.linalg.norm(sub, axis=1)
        corr = (sub @ sub.T) / np.outer(norm, norm)
        idx = np.flatnonzero(live)
        dist[np.ix_(idx, idx)] = 1.0 - np.abs(np.clip(corr, -1.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    return dist


def _k_medoids(values: np.ndarray, k: int, seed: int, max_swaps: int = 50) -> list[int]:
    """PAM swaps from a seeded start, all k x T swaps scored per round.

    Following FastPAM1 (Schubert & Rousseeuw), the change in total cost of
    swapping medoid m for candidate c is a term shared by every medoid plus
    a sum over the tasks whose nearest medoid is m. Each round costs
    O(k * T^2) in one matrix product and takes the first best swap in
    (medoid position, candidate) order if it lowers the cost by over 1e-12.
    """
    dist = _profile_distances(values)
    t = values.shape[0]
    rng = np.random.default_rng(seed)
    medoids = sorted(rng.choice(t, size=k, replace=False).tolist())
    for _ in range(max_swaps):
        to_medoids = dist[:, medoids]
        nearest = to_medoids.argmin(axis=1)
        cost = to_medoids.min(axis=1)
        second = np.partition(to_medoids, 1, axis=1)[:, 1] if k > 1 else np.full(t, np.inf)
        kept = np.minimum(dist, cost[:, None])
        delta = (kept - cost[:, None]).sum(axis=0) + np.eye(k)[nearest].T @ (
            np.minimum(dist, second[:, None]) - kept
        )
        delta[:, medoids] = np.inf
        mi, cand = np.unravel_index(np.argmin(delta), delta.shape)
        if not delta[mi, cand] < -1e-12:
            break
        medoids[mi] = int(cand)
        medoids.sort()
    return sorted(medoids)


def baseline_select(
    m: ScoreMatrix,
    k: int,
    method: str,
    seed: int = 0,
    max_swaps: int = 50,
) -> SelectionResult:
    """Comparison selectors: random, max-variance, discrimination, k-medoids,
    and the two-stage greedy-then-discrimination method."""
    values = m.dense_values()
    n_tasks = m.n_tasks
    if not 1 <= k <= n_tasks:
        raise ValueError(f"budget k must lie in [1, {n_tasks}]")
    if method == "ed_greedy":
        return ed_greedy(m, k)
    if method == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_tasks)[:k].tolist()
    elif method == "max_variance":
        variances = _task_variances(values)
        order = sorted(range(n_tasks), key=lambda t: (-variances[t], m.task_ids[t]))[:k]
    elif method == "irt_discrimination":
        disc = _discrimination(values)
        order = sorted(range(n_tasks), key=lambda t: (-disc[t], m.task_ids[t]))[:k]
    elif method == "k_medoids":
        order = _k_medoids(values, k, seed, max_swaps)
    elif method == "two_stage":
        pool = ed_greedy(m, min(2 * k, n_tasks)).selected
        disc = _discrimination(values)
        by_id = {tid: i for i, tid in enumerate(m.task_ids)}
        ranked = sorted(pool, key=lambda tid: (-disc[by_id[tid]], tid))[:k]
        order = [by_id[tid] for tid in ranked]
    else:
        raise ValueError(f"unknown selection method: {method!r}")
    return _trajectory_and_result(m, values, list(order), method, seed)


def ranking_fidelity(m: ScoreMatrix, selected) -> float:
    """Tau-b between model rankings by mean score on the subset vs all tasks."""
    from scipy.stats import kendalltau

    values = m.dense_values()
    idx = [m.task_index(t) for t in selected]
    if not idx:
        raise ValueError("selection is empty")
    sub_means = values[idx].mean(axis=0)
    full_means = values.mean(axis=0)
    tau = kendalltau(sub_means, full_means).statistic
    return float(tau)


@dataclass(frozen=True)
class CompressionCurve:
    """Random-subset fidelity as a function of the retained task fraction."""

    fraction_needed: float
    curve: tuple[tuple[float, float], ...]
    reached: bool
    tau_target: float


def compression_curve(
    m: ScoreMatrix,
    tau_target: float = 0.95,
    trials: int = 20,
    seed: int = 0,
    fractions=COMPRESSION_FRACTIONS,
) -> CompressionCurve:
    """Smallest task fraction whose mean random-subset fidelity hits the target."""
    values = m.dense_values()
    n_tasks = m.n_tasks
    curve = []
    fraction_needed = None
    for fi, frac in enumerate(fractions):
        size = max(1, round(frac * n_tasks))
        taus = []
        for trial in range(trials):
            rng = np.random.default_rng((seed, fi, trial))
            rows = np.sort(rng.choice(n_tasks, size=size, replace=False))
            sel = [m.task_ids[r] for r in rows]
            taus.append(ranking_fidelity(m, sel))
        mean_tau = float(np.mean(taus))
        curve.append((float(frac), mean_tau))
        if fraction_needed is None and mean_tau >= tau_target:
            fraction_needed = float(frac)
    reached = fraction_needed is not None
    return CompressionCurve(
        fraction_needed=fraction_needed if reached else 1.0,
        curve=tuple(curve),
        reached=reached,
        tau_target=tau_target,
    )


@dataclass(frozen=True)
class SubmodularityReport:
    """Empirical marginal-gain ratios at nested subsets."""

    median_gamma: float
    min_gamma: float
    violation_fraction: float
    valid_samples: int
    negative_gain_samples: int
    seed: int


def _append_gain(gram: np.ndarray, x: np.ndarray) -> float:
    """ED gain from appending task row ``x`` to rows whose N x N Gram is ``gram``.

    Appending adds x x^T to the Gram: its trace grows by |x|^2 and its squared
    Frobenius norm by 2 x^T G x + |x|^4. A flat selection has ED 0.
    """
    d = float(x @ x)
    trace = float(np.trace(gram))
    fro2 = float(np.vdot(gram, gram))
    new_fro2 = fro2 + 2.0 * float(x @ gram @ x) + d * d
    before = trace * trace / fro2 if fro2 > 0.0 else 0.0
    after = (trace + d) ** 2 / new_fro2 if new_fro2 > 0.0 else 0.0
    return after - before


def submodularity_probe(
    m: ScoreMatrix,
    samples: int = 200,
    seed: int = 0,
) -> SubmodularityReport:
    """Sample nested subsets S in S' and a task t outside both; gamma is the
    ratio of t's marginal ED gain at S to its gain at S'.

    Samples with denominator below 1e-9 or negative numerator are excluded
    from gamma (negative-gain samples are counted separately). Each sample
    costs O(|S'| * N^2): one N x N Gram of the task-centered rows of S,
    extended to S' by the rows of S' outside S.
    """
    values = m.dense_values()
    n_tasks = m.n_tasks
    if n_tasks < 8:
        raise ValueError("submodularity probe needs at least eight tasks")
    xc = center(values, "task")
    gammas = []
    negative = 0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        small = rng.integers(2, max(3, n_tasks // 4) + 1)
        big = rng.integers(small + 1, min(2 * small, n_tasks - 1) + 1)
        perm = rng.permutation(n_tasks)
        s_small = perm[:small]
        s_big = perm[:big]
        t = perm[big]
        rows = xc[s_small]
        gram = rows.T @ rows
        gain_small = _append_gain(gram, xc[t])
        rows = xc[s_big[small:]]
        gram += rows.T @ rows
        gain_big = _append_gain(gram, xc[t])
        if gain_small < 0.0:
            negative += 1
            continue
        if gain_big <= 1e-9:
            continue
        gammas.append(gain_small / gain_big)
    if len(gammas) < 10:
        raise ValueError("fewer than ten valid submodularity samples")
    gammas = np.asarray(gammas)
    return SubmodularityReport(
        median_gamma=float(np.median(gammas)),
        min_gamma=float(gammas.min()),
        violation_fraction=float((gammas < 1.0).mean()),
        valid_samples=int(gammas.size),
        negative_gain_samples=negative,
        seed=seed,
    )


@dataclass(frozen=True)
class ProspectiveRow:
    train_tau: float
    test_tau: float
    gap: float


def prospective_split_eval(
    m: ScoreMatrix,
    design_fraction: float = 0.6,
    methods=("ed_greedy", "random", "max_variance"),
    ks=(10, 50),
    seed: int = 0,
) -> dict[tuple[str, int], ProspectiveRow]:
    """Select on the weaker design cohort, evaluate fidelity on both cohorts.

    Models are split by mean score: the bottom ``design_fraction`` is the
    design cohort, the rest the future cohort; gap = test - train.
    """
    if not 0.0 < design_fraction < 1.0:
        raise ValueError("design_fraction must lie in (0, 1)")
    values = m.dense_values()
    means = values.mean(axis=0)
    order = sorted(range(m.n_models), key=lambda j: (means[j], m.model_ids[j]))
    cut = int(round(design_fraction * m.n_models))
    design_ids = [m.model_ids[j] for j in order[:cut]]
    future_ids = [m.model_ids[j] for j in order[cut:]]
    if len(design_ids) < 5 or len(future_ids) < 5:
        raise ValueError("each cohort needs at least five models")
    design = m.subset_models(design_ids)
    future = m.subset_models(future_ids)
    out: dict[tuple[str, int], ProspectiveRow] = {}
    for method in methods:
        for k in ks:
            k_eff = min(k, m.n_tasks)
            sel = baseline_select(design, k_eff, method, seed=seed).selected
            train = ranking_fidelity(design, sel)
            test = ranking_fidelity(future, sel)
            out[(method, k)] = ProspectiveRow(
                train_tau=train, test_tau=test, gap=test - train
            )
    return out
