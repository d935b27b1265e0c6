"""Greedy and baseline task selection, compression curves, and probes.

The greedy selector adds, at each step, the task with the largest marginal
increase in the centered-submatrix ED. Candidate EDs come from incremental
trace/Frobenius updates of the task-side Gram matrix, one Gram column per
added task, so no T x T matrix is formed; tests pin them against full SVD
recomputation. A step costs the O(T * N) Gram column plus an O(T) pick:
one candidate-ED pass over all tasks, with the tie-break applied to the
exact maxima only, so k steps cost O(k * T * N). The discrimination
baselines take the row statistics in whole-array passes, O(T * N), and every
ranking by (score desc, id asc) is ``composite._best_first``. The k-medoids
baseline scores PAM swaps with incremental FastPAM1 deltas over blocks of
unit task rows, so it forms no T x T distance matrix either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import _kendall_tau_b
from .composite import _best_first
from .matrix_io import ScoreMatrix, _id_positions, _positions
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
        _id_positions(self.selected, "task")
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
        """ED after adding task ``idx``; an index array or slice gives one ED
        per task it selects."""
        d = self.diag[idx]
        ntr = self.trace + d
        nfro = self.fro2 + 2.0 * self.cross[idx] + d * d
        live = nfro > 0.0
        return np.where(live, ntr * ntr / np.where(live, nfro, 1.0), 0.0)

    def reset(self) -> None:
        """Empty the selection; the centered grid and its diagonal stay."""
        self.trace = 0.0
        self.fro2 = 0.0
        self.cross = np.zeros(self.xc.shape[0])

    def add(self, t: int) -> float:
        ed = float(self.candidate_ed(t))
        self.trace += self.diag[t]
        self.fro2 += 2.0 * self.cross[t] + self.diag[t] * self.diag[t]
        self.cross += (self.xc @ self.xc[t]) ** 2
        return ed


def _selection_result(
    m: ScoreMatrix,
    order: list[int],
    trajectory: list[float],
    method: str,
    seed: int | None,
) -> SelectionResult:
    """The result for task positions ``order`` with the ED after each pick."""
    selected = tuple(m.task_ids[t] for t in order)
    return SelectionResult(
        method=method,
        selected=selected,
        ed_trajectory=tuple(trajectory),
        tau_vs_full=ranking_fidelity(m, selected),
        seed=seed,
    )


def _greedy_order(
    ev: _GramEvaluator, values: np.ndarray, task_ids, k: int
) -> tuple[list[int], list[float]]:
    """The k greedy picks, added to ``ev``, and the ED after each pick."""
    n_tasks = values.shape[0]
    if not ev.diag.any():
        raise ValueError("all tasks are degenerate (zero variance)")
    # tie priority: position in the (variance desc, id asc) order
    priority = np.empty(n_tasks, dtype=np.intp)
    priority[_best_first(values.var(axis=1), task_ids)] = np.arange(n_tasks)
    taken = np.zeros(n_tasks, dtype=bool)
    order: list[int] = []
    trajectory: list[float] = []
    for _ in range(k):
        eds = ev.candidate_ed(slice(None))
        eds[taken] = -np.inf
        tied = np.flatnonzero(eds == eds.max())
        best_t = int(tied[np.argmin(priority[tied])])
        trajectory.append(ev.add(best_t))
        taken[best_t] = True
        order.append(best_t)
    return order, trajectory


def ed_greedy(m: ScoreMatrix, k: int) -> SelectionResult:
    """Iteratively add the task with the largest marginal ED gain.

    Deterministic: ED ties break by higher task variance, then by task id.
    """
    values = m.dense_values()
    if not 1 <= k <= m.n_tasks:
        raise ValueError(f"budget k must lie in [1, {m.n_tasks}]")
    order, trajectory = _greedy_order(_GramEvaluator(values), values, m.task_ids, k)
    return _selection_result(m, order, trajectory, "ed_greedy", None)


def _discrimination(values: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Point-biserial correlation of tasks ``rows`` with the model total score.

    Rows go through :func:`center`, so constant tasks (like constant totals)
    get exactly 0; row stats are whole-array passes, O(T * N). The products
    with the centered totals stay one ``np.dot`` per row: one matrix-vector
    product can round identical rows differently, which would break the
    task-id tie-break.
    """
    totals = values.mean(axis=0)
    sub = values[rows]
    out = np.zeros(sub.shape[0])
    if totals.max() == totals.min():
        return out
    t_std = totals.std()
    tc = totals - totals.mean()
    centered = center(sub, "task")
    r_std = np.sqrt((centered * centered).sum(axis=1) / sub.shape[1])
    live = np.flatnonzero(r_std > 0.0)
    dots = np.array([np.dot(centered[i], tc) for i in live], dtype=float)
    out[live] = dots / (values.shape[1] * r_std[live] * t_std)
    return out


# Task rows per distance block in ``_k_medoids``: a block holds a few B x T
# arrays, so the swap search needs O(B * T) memory beyond the unit rows.
_MEDOID_BLOCK = 128


def _unit_rows(values: np.ndarray) -> np.ndarray:
    """Rows of :func:`center` scaled to unit norm; constant rows stay zero."""
    z = center(values, "task")
    norm = np.sqrt(np.einsum("ij,ij->i", z, z))
    z /= np.where(norm > 0.0, norm, 1.0)[:, None]
    return z


def _distance_rows(z: np.ndarray, rows: np.ndarray, work: np.ndarray) -> np.ndarray:
    """1 - |pearson| from tasks ``rows`` to every task, 0 from a task to itself,
    written into ``work[0]``.

    A constant task has a zero unit row, so it sits at distance 1 from every
    other task.
    """
    d = work[0, : rows.size]
    np.matmul(z[rows], z.T, out=d)
    np.abs(d, out=d)
    np.minimum(d, 1.0, out=d)
    np.subtract(1.0, d, out=d)
    d[np.arange(rows.size), rows] = 0.0
    return d


def _nearest_two(to_medoids: np.ndarray):
    """Each task's nearest medoid column, its distance and the second-nearest
    distance (inf with one medoid)."""
    nearest = to_medoids.argmin(axis=1)
    cost = to_medoids[np.arange(to_medoids.shape[0]), nearest]
    if to_medoids.shape[1] > 1:
        second = np.partition(to_medoids, 1, axis=1)[:, 1]
    else:
        second = np.full(to_medoids.shape[0], np.inf)
    return nearest, cost, second


def _swap_terms(d, cost, second, nearest, k: int, work: np.ndarray):
    """FastPAM1 terms of the tasks whose distance rows are ``d``.

    Returns the shared term, sum of min(d, cost) - cost = min(d - cost, 0)
    per candidate, and the k x T term grouped by nearest medoid, sum of
    min(d, second) - min(d, cost) = clip(d - cost, 0, second - cost); a task
    whose ``nearest`` is -1 joins no group. Both are formed in ``work[1:]``:
    a fresh B x T array per call would cost more than the arithmetic.
    """
    e = np.subtract(d, cost[:, None], out=work[1, : d.shape[0]])
    g = np.minimum(e, (second - cost)[:, None], out=work[2, : d.shape[0]])
    np.maximum(g, 0.0, out=g)
    np.minimum(e, 0.0, out=e)
    member = (nearest[:, None] == np.arange(k)).astype(float)
    return e.sum(axis=0), member.T @ g


def _k_medoids(values: np.ndarray, k: int, seed: int, max_swaps: int = 50) -> list[int]:
    """PAM swaps from a seeded start, all k x T swaps scored per round.

    Distances are 1 - |pearson| between task rows, taken from the unit rows Z
    of the task-centered grid; only the T x k distances to the medoids are
    kept. Following FastPAM1 (Schubert & Rousseeuw), the change in total cost
    of swapping medoid m for candidate c is a term shared by every medoid
    plus a term summed over the tasks whose nearest medoid is m. The first
    round sums both over blocks of ``_MEDOID_BLOCK`` task rows, one
    ``Z_B @ Z.T`` product each, O(T^2 * N). A swap changes the nearest
    medoid, cost or second-nearest distance of a set C of tasks; only their
    terms are recomputed (old subtracted, new added), O(|C| * T * N) per
    swap plus O(T * k) to refresh the nearest medoids. Memory is
    O(T * (N + k) + B * T). Each round takes the smallest change; changes
    within 1e-12 of it tie, and the first in (medoid position, candidate)
    order wins, where positions follow the sorted medoid ids. The swap is
    made only if the change is below -1e-12.
    """
    z = _unit_rows(values)
    t = values.shape[0]
    rng = np.random.default_rng(seed)
    medoids = np.sort(rng.choice(t, size=k, replace=False))
    # column j holds the distances to medoids[j]; columns keep their slot
    # when a swap replaces the medoid, so ``nearest`` indexes slots
    to_medoids = 1.0 - np.minimum(np.abs(z @ z[medoids].T), 1.0)
    to_medoids[medoids, np.arange(k)] = 0.0
    nearest, cost, second = _nearest_two(to_medoids)
    shared = np.zeros(t)
    grouped = np.zeros((k, t))
    work = np.empty((3, min(_MEDOID_BLOCK, t), t))
    for start in range(0, t, _MEDOID_BLOCK):
        rows = np.arange(start, min(start + _MEDOID_BLOCK, t))
        d = _distance_rows(z, rows, work)
        s, g = _swap_terms(d, cost[rows], second[rows], nearest[rows], k, work)
        shared += s
        grouped += g
    for _ in range(max_swaps):
        delta = shared + grouped
        delta[:, medoids] = np.inf
        best = delta.min()
        if not best < -1e-12:
            break
        by_id = np.argsort(medoids)
        pos, cand = divmod(int(np.argmax(delta[by_id].ravel() <= best + 1e-12)), t)
        slot = by_id[pos]
        medoids[slot] = cand
        to_medoids[:, slot] = 1.0 - np.minimum(np.abs(z @ z[cand]), 1.0)
        to_medoids[cand, slot] = 0.0
        old_nearest, old_cost, old_second = nearest, cost, second
        nearest, cost, second = _nearest_two(to_medoids)
        changed = np.flatnonzero(
            (nearest != old_nearest)
            | (old_nearest == slot)
            | (cost != old_cost)
            | (second != old_second)
        )
        # every old member of the slot is in ``changed``; drop the slot's
        # old group outright instead of subtracting its terms
        grouped[slot] = 0.0
        old_nearest = np.where(old_nearest == slot, -1, old_nearest)
        for start in range(0, changed.size, _MEDOID_BLOCK):
            rows = changed[start : start + _MEDOID_BLOCK]
            d = _distance_rows(z, rows, work)
            s, g = _swap_terms(d, old_cost[rows], old_second[rows], old_nearest[rows], k, work)
            shared -= s
            grouped -= g
            s, g = _swap_terms(d, cost[rows], second[rows], nearest[rows], k, work)
            shared += s
            grouped += g
    return sorted(medoids.tolist())


def baseline_select(
    m: ScoreMatrix,
    k: int,
    method: str,
    seed: int = 0,
) -> SelectionResult:
    """Comparison selectors: random, max-variance, discrimination, k-medoids,
    and the two-stage greedy-then-discrimination method."""
    values = m.dense_values()
    n_tasks = m.n_tasks
    if not 1 <= k <= n_tasks:
        raise ValueError(f"budget k must lie in [1, {n_tasks}]")
    if method == "ed_greedy":
        return ed_greedy(m, k)
    ev = _GramEvaluator(values)
    if method == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_tasks)[:k].tolist()
    elif method == "max_variance":
        order = _best_first(values.var(axis=1), m.task_ids)[:k].tolist()
    elif method == "irt_discrimination":
        order = _best_first(_discrimination(values), m.task_ids)[:k].tolist()
    elif method == "k_medoids":
        order = _k_medoids(values, k, seed)
    elif method == "two_stage":
        pool = np.array(_greedy_order(ev, values, m.task_ids, min(2 * k, n_tasks))[0])
        ev.reset()
        disc = _discrimination(values, pool)
        order = pool[_best_first(disc, [m.task_ids[t] for t in pool])[:k]].tolist()
    else:
        raise ValueError(f"unknown selection method: {method!r}")
    return _selection_result(m, order, [ev.add(t) for t in order], method, seed)


def ranking_fidelity(m: ScoreMatrix, selected) -> float:
    """Tau-b between model rankings by mean score on the subset vs all tasks.

    One O(T N) pass for the means, then one O(N log N) tau-b.
    """
    values = m.dense_values()
    idx = _positions(m._task_pos, selected, "task")
    if not idx:
        raise ValueError("selection is empty")
    sub_means = values[idx].mean(axis=0)
    return float(_kendall_tau_b(sub_means[None, :], values.mean(axis=0))[0])


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
    """Smallest task fraction whose mean random-subset fidelity hits the target.

    Trial ``t`` of fraction ``i`` draws its rows from ``default_rng((seed, i,
    t))``. Each fraction's trial means form one trials x N stack scored by a
    single tau-b call, so R = trials x fractions replicates cost
    O(R (f T N + N log N)) for the mean retained fraction f, after one copy
    of the grid.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    bad = [frac for frac in fractions if not 0.0 < frac <= 1.0]
    if bad:
        raise ValueError(f"fractions must lie in (0, 1], got {bad[0]}")
    values = m.dense_values()
    full_means = values.mean(axis=0)
    n_tasks = m.n_tasks
    curve = []
    fraction_needed = None
    for fi, frac in enumerate(fractions):
        size = max(1, round(frac * n_tasks))
        sub_means = np.empty((trials, m.n_models))
        for trial in range(trials):
            rng = np.random.default_rng((seed, fi, trial))
            rows = np.sort(rng.choice(n_tasks, size=size, replace=False))
            sub_means[trial] = values[rows].mean(axis=0)
        mean_tau = float(np.mean(_kendall_tau_b(sub_means, full_means)))
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
    methods=("ed_greedy", "random", "max_variance"),
    ks=(10, 50),
    seed: int = 0,
) -> dict[tuple[str, int], ProspectiveRow]:
    """Select on the weaker design cohort, evaluate fidelity on both cohorts.

    Models are split by mean score: the bottom 60% is the design cohort,
    the rest the future cohort; gap = test - train.
    """
    values = m.dense_values()
    order = _best_first(-values.mean(axis=0), m.model_ids).tolist()
    cut = int(round(0.6 * m.n_models))
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
