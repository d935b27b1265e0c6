"""The replicate contract: every seeded loop takes its count check from
``association._count`` and its per-replicate generators from
``association._streams``."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import spectradiag
from spectradiag import (
    IrtSpec,
    alternative_estimators,
    bootstrap_ed_ci,
    build_ed_report,
    compression_curve,
    correlation_ci,
    ed_of_matrix,
    gen_irt_matrix,
    matched_dimension_ed,
    permutation_null,
    rank_recovery_report,
    split_half_reliability,
    submodularity_probe,
)
from spectradiag.association import _paired_corr
from spectradiag.composite import SuiteScores, ceiling_oracle, dirichlet_fragility
from spectradiag.selection import _append_gain
from spectradiag.spectral import center, principal_components
from spectradiag.temporal import (
    cohort_bootstrap_compare,
    diversity_insertion_probe,
    ed_vs_model_count,
)

SRC = Path(spectradiag.__file__).parent


def _scoped_nodes(tree):
    """(enclosing function name or None, node) for every node of ``tree``."""
    stack = [(None, tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _source_sites(match):
    """Sorted (module, function) pairs of the src nodes that ``match`` accepts."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), str(path))):
            if match(node):
                sites.add((path.name, scope))
    return sorted(sites)


def _is_keyed_rng(node) -> bool:
    if not isinstance(node, ast.Call) or not node.args:
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    return name == "default_rng" and isinstance(node.args[0], ast.Tuple)


def _is_count_error(node) -> bool:
    if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
        return False
    if getattr(node.exc.func, "id", None) != "ValueError":
        return False
    return any(
        isinstance(c, ast.Constant) and isinstance(c.value, str) and "must be at least" in c.value
        for c in ast.walk(node.exc)
    )


class TestOneRule:
    def test_only_streams_builds_keyed_generators(self):
        assert _source_sites(_is_keyed_rng) == [("association.py", "_streams")]

    def test_only_count_raises_the_count_error(self):
        assert _source_sites(_is_count_error) == [("association.py", "_count")]


@pytest.fixture(scope="module")
def grid():
    return gen_irt_matrix(IrtSpec(k=3, tasks=40, models=20, seed=4))


@pytest.fixture(scope="module")
def suite():
    table = np.random.default_rng(2).random((24, 3))
    return SuiteScores(tuple(f"m{j:02d}" for j in range(24)), ("b0", "b1", "b2"), table)


xy = np.random.default_rng(1).standard_normal((2, 12))

# (name, what, low, call(grid, suite, count))
COUNTED = [
    ("bootstrap_ed_ci", "iterations", 1, lambda m, s, n: bootstrap_ed_ci(m, iterations=n)),
    ("correlation_ci", "iterations", 1, lambda m, s, n: correlation_ci(*xy, iterations=n)),
    ("permutation_null", "replicates", 2, lambda m, s, n: permutation_null(m, replicates=n)),
    ("matched_dimension_ed", "trials", 1, lambda m, s, n: matched_dimension_ed(m, 20, 10, n)),
    (
        "matched_dimension_ed_full_size",
        "trials",
        1,
        lambda m, s, n: matched_dimension_ed(m, m.n_tasks, m.n_models, n),
    ),
    ("split_half_reliability", "splits", 1, lambda m, s, n: split_half_reliability(m, 2, n)),
    (
        "alternative_estimators",
        "pa_replicates",
        1,
        lambda m, s, n: alternative_estimators(m, pa_replicates=n),
    ),
    (
        "build_ed_report",
        "bootstrap iterations",
        0,
        lambda m, s, n: build_ed_report(m, bootstrap_iterations=n),
    ),
    ("compression_curve", "trials", 1, lambda m, s, n: compression_curve(m, trials=n)),
    ("submodularity_probe", "samples", 1, lambda m, s, n: submodularity_probe(m, samples=n)),
    ("ed_vs_model_count", "trials", 1, lambda m, s, n: ed_vs_model_count(m, [5, 10], n)),
    (
        "ed_vs_model_count_full_set",
        "trials",
        1,
        lambda m, s, n: ed_vs_model_count(m, [m.n_models], n),
    ),
    (
        "cohort_bootstrap_compare",
        "iterations",
        1,
        lambda m, s, n: cohort_bootstrap_compare(
            s, s.model_ids[:12], s.model_ids[12:], sample=8, iterations=n
        ),
    ),
    (
        "diversity_insertion_probe",
        "trials",
        1,
        lambda m, s, n: diversity_insertion_probe(
            m, m.model_ids[:10], m.model_ids[10:], trials=n
        ),
    ),
    ("dirichlet_fragility", "samples", 1, lambda m, s, n: dirichlet_fragility(s, samples=n)),
    ("ceiling_oracle", "grid", 1, lambda m, s, n: ceiling_oracle(0.3, grid=n)),
    (
        "rank_recovery_report",
        "seeds",
        1,
        lambda m, s, n: rank_recovery_report(ks=(1, 2), seeds=n, tasks=20, models=10),
    ),
]


class TestCountRule:
    @pytest.mark.parametrize("below", [1, 2])
    @pytest.mark.parametrize(
        "what, low, call", [case[1:] for case in COUNTED], ids=[case[0] for case in COUNTED]
    )
    def test_count_below_floor_rejected(self, grid, suite, what, low, call, below):
        n = low - below
        wording = f"^{re.escape(what)} must be at least {low}, got {n}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=wording):
                call(grid, suite, n)


# Test-local copies of the per-replicate loops as they were before the loops
# drew from ``_streams``; each converted function must equal its copy bit for
# bit. The other converted loops are pinned by the reference tests of their
# modules (bootstrap, correlation and cohort intervals, both shuffle nulls,
# compression curve, ED against model count and the insertion probe).


def matched_dimension_loop(m, n_tasks, n_models, trials, seed):
    values = m.dense_values()
    eds = []
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        rows = np.sort(rng.choice(m.n_tasks, size=n_tasks, replace=False))
        cols = np.sort(rng.choice(m.n_models, size=n_models, replace=False))
        eds.append(ed_of_matrix(values[np.ix_(rows, cols)]))
    eds = np.asarray(eds)
    return float(eds.mean()), float(eds.std())


def split_half_loop(m, k, splits, seed):
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
        corr = np.abs(za.T @ zb) / np.where(denom > 0.0, denom, np.inf)
        for _ in range(k):
            i, j = divmod(int(np.argmax(corr)), k)
            sums[i] += corr[i, j]
            corr[i] = corr[:, j] = -1.0
    return sums / splits


def submodularity_loop(m, samples, seed):
    """Valid gammas and the negative-gain count."""
    n_tasks = m.n_tasks
    xc = center(m.dense_values(), "task")
    gammas = []
    negative = 0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        small = rng.integers(2, max(3, n_tasks // 4) + 1)
        big = rng.integers(small + 1, min(2 * small, n_tasks - 1) + 1)
        perm = rng.permutation(n_tasks)
        t = perm[big]
        rows = xc[perm[:small]]
        gram = rows.T @ rows
        gain_small = _append_gain(gram, xc[t])
        rows = xc[perm[small:big]]
        gram += rows.T @ rows
        gain_big = _append_gain(gram, xc[t])
        if gain_small < 0.0:
            negative += 1
            continue
        if gain_big <= 1e-9:
            continue
        gammas.append(gain_small / gain_big)
    return np.asarray(gammas), negative


def rank_recovery_eds(ks, seeds, tasks, models):
    """ED per (seed, k), seeds as rows."""
    eds = np.empty((seeds, len(ks)))
    for ki, k in enumerate(ks):
        for s in range(seeds):
            spec = IrtSpec(
                k=k,
                tasks=tasks,
                models=models,
                discrimination_scale=2.0,
                difficulty_spread=1.0,
                seed=int(np.random.default_rng((k, s)).integers(2**31)),
            )
            eds[s, ki] = ed_of_matrix(gen_irt_matrix(spec).dense_values())
    return eds


class TestEqualsParentLoop:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dims", [(20, 10), (40, 5), (7, 20)])
    def test_matched_dimension_ed(self, grid, seed, dims):
        got = matched_dimension_ed(grid, *dims, trials=9, seed=seed)
        assert got == matched_dimension_loop(grid, *dims, 9, seed)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("k", [1, 4])
    def test_split_half_reliability(self, grid, seed, k):
        got = split_half_reliability(grid, k, splits=6, seed=seed)
        assert got.tobytes() == split_half_loop(grid, k, 6, seed).tobytes()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_submodularity_probe(self, grid, seed):
        rep = submodularity_probe(grid, samples=80, seed=seed)
        gammas, negative = submodularity_loop(grid, 80, seed)
        assert (rep.valid_samples, rep.negative_gain_samples) == (gammas.size, negative)
        assert rep.median_gamma == float(np.median(gammas))
        assert rep.min_gamma == float(gammas.min())
        assert rep.violation_fraction == float((gammas < 1.0).mean())

    def test_rank_recovery_report(self):
        ks = (1, 2, 4)
        rep = rank_recovery_report(ks=ks, seeds=3, tasks=30, models=12)
        eds = rank_recovery_eds(ks, 3, 30, 12)
        assert rep.per_k_mean_ed == {k: float(eds[:, ki].mean()) for ki, k in enumerate(ks)}
        assert rep.per_seed_rho == tuple(_paired_corr(eds, ks, "spearman").tolist())
