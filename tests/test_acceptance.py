"""End-to-end acceptance suite.

Each test prints one PASS line (with its runtime) after asserting the
criterion at its stated tolerance; the runtime budget itself is asserted.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from pathlib import Path

import numpy as np

from spectradiag import (
    IrtSpec,
    Spectrum,
    baseline_select,
    ceiling_oracle,
    composite_ceiling,
    ed_greedy,
    ed_of_matrix,
    effective_dimensionality,
    compression_curve,
    gen_iid_matrix,
    gen_irt_matrix,
    load_matrix,
    mann_kendall,
    mp_null_ed,
    permutation_null,
    rank_recovery_report,
    renyi2_ed,
    save_matrix,
    saturation_fit,
    score_matrix,
    shannon_effective_rank,
    significant_pcs,
    tetrachoric,
    tetrachoric_ed,
    fixed_variance_subset,
)
from spectradiag.cli import main as cli_main

DATA = Path(__file__).parent / "data"


class _Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(
                f"\nACCEPTANCE {self.number}: PASS ({elapsed:.1f}s / "
                f"{self.seconds:.0f}s budget) - {self.description}"
            )
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
            )
        else:
            print(f"\nACCEPTANCE {self.number}: FAIL - {self.description}")
        return False


def test_01_spectral_identities():
    with _Budget(1, "spectral identities on 1,000 random spectra", 5):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            s = Spectrum(np.sort(rng.random(n) * 10 + 1e-6)[::-1])
            ed = effective_dimensionality(s)
            assert abs(ed - renyi2_ed(s)) < 1e-9
            nonzero = int((s.sigmas > 1e-10 * s.sigmas[0]).sum())
            assert 1.0 - 1e-12 <= ed <= nonzero + 1e-9
            assert shannon_effective_rank(s) >= ed - 1e-9
        for k in (1, 2, 5, 17):
            assert effective_dimensionality(Spectrum(np.ones(k))) == float(k)


def test_02_marchenko_pastur_calibration():
    with _Budget(2, "Marchenko-Pastur null calibration", 30):
        assert abs(mp_null_ed(500, 134) - 105.7) < 0.1
        for tasks, models in ((500, 134), (200, 50)):
            null = mp_null_ed(tasks, models)
            for seed in range(5):
                x = gen_iid_matrix(tasks, models, "gaussian", seed=seed)
                assert abs(ed_of_matrix(x) - null) / null < 0.10


def test_03_irt_rank_recovery():
    with _Budget(3, "synthetic 2PL rank recovery across k", 180):
        rep = rank_recovery_report(
            ks=(1, 2, 3, 5, 10, 20),
            seeds=10,
            tasks=500,
            models=100,
            discrimination_scale=2.0,
        )
        assert rep.spearman_rho >= 0.9
        for k, ratio in rep.overestimate_ratio.items():
            assert 1.0 <= ratio <= 10.0, f"k={k} ratio {ratio:.2f} outside [1, 10]"


def test_04_ceiling_oracle_equivalence():
    with _Budget(4, "composite ceiling equals grid oracle", 5):
        for rho in (-0.9, -0.64, -0.3, 0.0, 0.5, 0.96):
            closed = composite_ceiling(rho)
            probe = ceiling_oracle(rho)
            assert abs(closed - probe.value) < 1e-3
            assert 0.99 <= probe.t_star <= 1.01
        assert round(composite_ceiling(-0.64), 2) == 0.42
        assert round(composite_ceiling(0.96), 2) == 0.99


def test_05_ed_greedy_dominance():
    with _Budget(5, "greedy selection triples random-subset ED", 120):
        greedy_eds, random_eds = [], []
        for seed in range(10):
            m = gen_irt_matrix(
                IrtSpec(
                    k=20,
                    tasks=300,
                    models=100,
                    discrimination_scale=0.75,
                    difficulty_spread=20.0,
                    seed=seed,
                )
            )
            res = ed_greedy(m, 50)
            assert res.ed_trajectory[0] == 1.0
            greedy_eds.append(res.ed_trajectory[-1])
            rand = baseline_select(m, 50, "random", seed=1000 + seed)
            random_eds.append(rand.ed_trajectory[-1])
        assert np.median(greedy_eds) >= 3.0 * np.median(random_eds)


def test_06_compression_ordering():
    with _Budget(6, "low-dimensional matrices compress further", 120):
        for seed in range(5):
            f1 = compression_curve(
                gen_irt_matrix(
                    IrtSpec(
                        k=1, tasks=300, models=100, discrimination_scale=4.0,
                        loading_orientation="positive", seed=seed,
                    )
                ),
                trials=20,
                seed=seed,
            ).fraction_needed
            f10 = compression_curve(
                gen_irt_matrix(
                    IrtSpec(
                        k=10, tasks=300, models=100, discrimination_scale=4.0,
                        loading_orientation="positive", seed=seed,
                    )
                ),
                trials=20,
                seed=seed,
            ).fraction_needed
            assert f1 < f10, f"seed {seed}: {f1} !< {f10}"


def test_07_tetrachoric_correctness():
    with _Budget(7, "tetrachoric recovery and binary attenuation", 60):
        rng = np.random.default_rng(42)
        for true_rho in (-0.5, 0.0, 0.5, 0.9):
            cov = [[1.0, true_rho], [true_rho, 1.0]]
            z = rng.multivariate_normal([0.0, 0.0], cov, size=100_000)
            x = z[:, 0] > 0.4
            y = z[:, 1] > -0.3
            table = [
                [np.sum(x & y), np.sum(x & ~y)],
                [np.sum(~x & y), np.sum(~x & ~y)],
            ]
            assert abs(tetrachoric(table) - true_rho) < 0.05
        # zero-threshold closed form: rho = sin(2 pi (p11 - 1/4))
        assert abs(tetrachoric([[12, 6], [6, 12]]) - 0.5) < 1e-3
        assert abs(tetrachoric([[9, 9], [9, 9]]) - 0.0) < 1e-3
        for k, seed in ((2, 1), (5, 2)):
            m = gen_irt_matrix(
                IrtSpec(k=k, tasks=300, models=50, discrimination_scale=2.0, seed=seed)
            )
            assert tetrachoric_ed(m) / ed_of_matrix(m.dense_values()) < 1.0


def _ceiling_cohort_matrix():
    """Rising-ability population: most tasks saturate, a coin-flip block stays live.

    Difficulties follow a triangular density peaked at the low end so the
    count of still-discriminating tasks declines steadily across windows.
    """
    rng = np.random.default_rng(7)
    n_models, n_ceiling, n_stable = 400, 120, 40
    ability = np.linspace(-2.0, 2.5, n_models)
    b_ceiling = -2.0 + 4.5 * (1.0 - np.sqrt(rng.random(n_ceiling)))
    p_ceiling = 1.0 / (1.0 + np.exp(-(3.0 * (ability[None, :] - b_ceiling[:, None]))))
    p_stable = np.full((n_stable, n_models), 0.5)
    probs = np.vstack([p_ceiling, p_stable])
    values = (rng.random(probs.shape) < probs).astype(float)
    return score_matrix(
        [f"t{i:03d}" for i in range(n_ceiling + n_stable)],
        [f"m{j:03d}" for j in range(n_models)],
        values,
    )


def test_08_temporal_suite():
    with _Budget(8, "trend test, saturation recovery, ceiling control", 60):
        up = mann_kendall(np.arange(10.0))
        down = mann_kendall(np.arange(10.0)[::-1])
        assert up.tau == 1.0 and up.p < 0.01
        assert down.tau == -1.0 and down.p < 0.01

        for ed_inf, n_half in ((35.4, 35.0), (8.4, 7.0)):
            n = np.arange(10.0, 151.0, 10.0)
            fit = saturation_fit(np.column_stack([n, ed_inf * n / (n + n_half)]))
            assert abs(fit.ed_inf - ed_inf) / ed_inf < 0.01
            assert abs(fit.n_half - n_half) / n_half < 0.01

        m = _ceiling_cohort_matrix()
        early = list(m.model_ids[:120])
        late = list(m.model_ids[-120:])
        stable = fixed_variance_subset(m, early, late, tol=0.2)
        assert len(stable) >= 10
        values = m.dense_values()
        stable_idx = [m.task_index(t) for t in stable]
        window, step = 100, 30
        full_series, stable_series = [], []
        start = 0
        while start + window <= m.n_models:
            cols = slice(start, start + window)
            full_series.append(ed_of_matrix(values[:, cols]))
            stable_series.append(ed_of_matrix(values[stable_idx, cols]))
            start += step
        full_trend = mann_kendall(full_series)
        stable_trend = mann_kendall(stable_series)
        assert full_trend.tau < -0.5 and full_trend.p < 0.05
        assert abs(stable_trend.tau) < 0.2


def test_09_permutation_null_discrimination():
    with _Budget(9, "permutation band separates noise from structure", 120):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            noise = score_matrix(
                [f"t{i}" for i in range(300)],
                [f"m{j}" for j in range(100)],
                (rng.random((300, 100)) < 0.5).astype(float),
            )
            band = permutation_null(noise, replicates=100, seed=seed)
            assert significant_pcs(noise, band) <= 1
        for seed in range(5):
            m = gen_irt_matrix(
                IrtSpec(k=5, tasks=300, models=100, discrimination_scale=2.0, seed=seed)
            )
            band = permutation_null(m, replicates=100, seed=seed)
            assert significant_pcs(m, band) >= 3


def test_10_determinism_and_plumbing(tmp_path, capsys):
    with _Budget(10, "seeded determinism, lossless round-trips, workflow flags", 30):
        # randomized operations: identical output under a fixed seed
        m = gen_irt_matrix(IrtSpec(k=3, tasks=80, models=30, discrimination_scale=2.0, seed=1))
        from spectradiag import (
            bootstrap_ed_ci,
            matched_dimension_ed,
            submodularity_probe,
        )

        assert bootstrap_ed_ci(m, iterations=50, seed=3) == bootstrap_ed_ci(
            m, iterations=50, seed=3
        )
        assert matched_dimension_ed(m, 40, 15, trials=5, seed=3) == matched_dimension_ed(
            m, 40, 15, trials=5, seed=3
        )
        assert submodularity_probe(m, samples=40, seed=3) == submodularity_probe(
            m, samples=40, seed=3
        )
        assert baseline_select(m, 5, "random", seed=3).selected == baseline_select(
            m, 5, "random", seed=3
        ).selected

        # CSV round-trip lossless
        path = tmp_path / "roundtrip.csv"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.task_ids == m.task_ids
        assert back.model_ids == m.model_ids
        np.testing.assert_array_equal(back.values, m.values)

        # JSON round-trip lossless
        jpath = tmp_path / "roundtrip.json"
        save_matrix(m, jpath, format="json")
        back = load_matrix(jpath, format="json")
        np.testing.assert_array_equal(back.values, m.values)

        # CLI byte-reproducibility across reruns
        matrix_csv = tmp_path / "cli.csv"
        save_matrix(m, matrix_csv)
        outputs = []
        for _ in range(2):
            code = cli_main(
                [
                    "select", "--matrix", str(matrix_csv), "--method", "random",
                    "--k", "10", "--seed", "11",
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

        # workflow on the bundled toy suite flags exactly the clone pair
        code = cli_main(["workflow", "--suite", str(DATA / "toy_suite.csv")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        red = payload["result"]["step1_redundancy"]["redundant_pairs"]
        assert len(red) == 1
        assert sorted(red[0][:2]) == ["bbh_like", "mmlu_like"]
