import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from spectradiag import ed_of_matrix, impute_missing, load_matrix
from spectradiag.cli import _DIGEST_BLOCK, _build_parser, _digest, main
from spectradiag.matrix_io import _read_csv_grid
from spectradiag.temporal import (
    EdSeries,
    mann_kendall,
    saturation_fit,
    temporal_information_density,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def toy_matrix(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(
        "task_id,m1,m2,m3\nt1,1,0,0\nt2,0,1,0\nt3,0,0,1\n", encoding="utf-8"
    )
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEdCommand:
    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("m.csv", "task_id,a,b\nt1,0,1\nt2,1.5,0\n",
             "m.csv:3: cell 1.5 outside [0, 1] for task 't2', model 'a'"),
            ("m.json", '{"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], '
             '"values": [[0, 1], [1.5, 0]]}',
             "m.json: cell 1.5 outside [0, 1] at values index [1, 0]"),
        ],
        ids=["csv", "json"],
    )
    def test_out_of_range_cell_located(self, capsys, tmp_path, name, text, where):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "ed", "--matrix", p, "--format", name[2:])
        assert (code, out) == (2, "")
        assert where in err

    def test_matches_library_value(self, capsys, toy_matrix):
        code, out, err = run(capsys, "ed", "--matrix", toy_matrix, "--bootstrap-iters", "0")
        assert code == 0
        payload = json.loads(out)
        want = ed_of_matrix(load_matrix(toy_matrix).dense_values())
        assert math.isclose(payload["result"]["ed"], want, rel_tol=1e-12)
        assert payload["result"]["ratio"] == payload["result"]["ed"] / payload["result"]["ed_null"]
        assert "sha256" in payload["inputs"]["matrix"]

    def test_centering_changes_result_not_input(self, capsys, tmp_path):
        p = tmp_path / "asym.csv"
        p.write_text(
            "task_id,m1,m2,m3,m4\nt1,1,1,1,0\nt2,1,0,0,0\nt3,0,1,0,0\n",
            encoding="utf-8",
        )
        before = p.read_bytes()
        _, out_task, _ = run(capsys, "ed", "--matrix", p, "--bootstrap-iters", "0")
        _, out_model, _ = run(
            capsys, "ed", "--matrix", p, "--centering", "model", "--bootstrap-iters", "0"
        )
        assert p.read_bytes() == before
        ed_task = json.loads(out_task)["result"]["ed"]
        ed_model = json.loads(out_model)["result"]["ed"]
        assert ed_task != ed_model

    def test_byte_identical_rerun(self, capsys, toy_matrix):
        _, out1, _ = run(capsys, "ed", "--matrix", toy_matrix, "--seed", "5", "--bootstrap-iters", "0")
        _, out2, _ = run(capsys, "ed", "--matrix", toy_matrix, "--seed", "5", "--bootstrap-iters", "0")
        assert out1 == out2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "ed", "--matrix", tmp_path / "nope.csv")
        assert code == 2
        assert "input error" in err

    def test_invalid_cell_exit_2_names_offender(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("task_id,a,b\nt1,x,1\n", encoding="utf-8")
        code, _, err = run(capsys, "ed", "--matrix", p)
        assert code == 2
        assert "t1" in err and "'a'" in err

    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
    def test_non_finite_cell_exit_2_names_line(self, capsys, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"task_id,a,b\nt1,1,0\n\nt2,{cell},1\n", encoding="utf-8")
        code, out, err = run(capsys, "ed", "--matrix", p, "--bootstrap-iters", "0")
        assert code == 2
        assert out == ""
        assert f"{p}:4:" in err and "'t2'" in err and "'a'" in err

    @pytest.mark.parametrize(
        "values",
        [
            "[[1, 0], [0]]",
            "[[1, 0], [0, NaN]]",
            "[[1, 0], [0, Infinity]]",
            "[[true, 0], [0, 1]]",
            '[[1, 0], [0, "1e-1"]]',
        ],
    )
    def test_malformed_json_values_exit_2(self, capsys, tmp_path, values):
        p = tmp_path / "bad.json"
        p.write_text(
            f'{{"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], "values": {values}}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "ed", "--matrix", p, "--format", "json")
        assert code == 2
        assert out == ""
        assert str(p) in err

    def test_out_of_range_json_integer_exit_2_names_index(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(
            '{"task_ids": ["t1", "t2"], "model_ids": ["a", "b"], '
            f'"values": [[1, 0], [0, 1{"0" * 400}]]}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "ed", "--matrix", p, "--format", "json")
        assert code == 2
        assert out == ""
        assert str(p) in err and "[1, 1]" in err

    def test_out_file_written(self, capsys, toy_matrix, tmp_path):
        dest = tmp_path / "report.json"
        _, out, _ = run(
            capsys, "ed", "--matrix", toy_matrix, "--bootstrap-iters", "0", "--out", dest
        )
        assert dest.read_text() == out

    def test_continuous_binarized_by_default(self, capsys, tmp_path):
        p = tmp_path / "cont.csv"
        p.write_text(
            "task_id,a,b,c\nt1,0.73,0.2,0.9\nt2,0.4,0.6,0.1\n", encoding="utf-8"
        )
        _, out, _ = run(capsys, "ed", "--matrix", p, "--bootstrap-iters", "0")
        payload = json.loads(out)["result"]
        assert payload["kind"] == "binary"
        assert payload["preprocessing"] == ["binarized at 0.5"]
        _, out, _ = run(
            capsys, "ed", "--matrix", p, "--no-binarize", "--bootstrap-iters", "0"
        )
        assert json.loads(out)["result"]["kind"] == "continuous"

    def test_missing_cells_imputed(self, capsys, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text(
            "task_id,a,b,c\nt1,1,,0\nt2,0,1,\nt3,1,1,0\nt4,,0,1\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "ed", "--matrix", p, "--bootstrap-iters", "0")
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["preprocessing"] == ["imputed missing cells with model means"]
        assert payload["ed"] == ed_of_matrix(impute_missing(load_matrix(p)))


class TestCeiling:
    def test_negative_rho_value(self, capsys):
        code, out, _ = run(capsys, "ceiling", "--rho", "-0.64")
        assert code == 0
        payload = json.loads(out)
        assert round(payload["result"]["ceiling"], 4) == 0.4243
        assert abs(payload["result"]["oracle_value"] - 0.4243) < 1e-3

    def test_invalid_rho_exit_2(self, capsys):
        code, _, err = run(capsys, "ceiling", "--rho", "-1.0")
        assert code == 2
        assert "input error" in err

    def test_draws_nothing_so_reports_no_seed(self, capsys):
        code, out, _ = run(capsys, "ceiling", "--rho", "0.5")
        assert code == 0
        assert json.loads(out)["seed"] is None

    def test_bad_synth_dimensions_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "synth", "--k", "50", "--tasks", "10", "--models", "10",
            "--out-matrix", tmp_path / "x.csv",
        )
        assert code == 2


class TestSeedFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ("corr", "--suite", DATA / "toy_suite.csv"),
            ("ceiling", "--rho", "0.5"),
            ("workflow", "--suite", DATA / "toy_suite.csv"),
            ("saturate", "--points", DATA / "toy_suite.csv"),
            ("trend", "--series", DATA / "toy_suite.csv"),
        ],
    )
    def test_rejected_where_nothing_is_drawn(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "--seed", "1")
        assert exc.value.code == 2

    def test_ed_seed_reruns_byte_identically(self, capsys, toy_matrix):
        argv = ("ed", "--matrix", toy_matrix, "--seed", "7", "--bootstrap-iters", "30")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert json.loads(out1)["seed"] == 7


# One successful invocation per subcommand, given the toy matrix, the toy
# suite, an x,ed series and a scratch directory.
ENVELOPE_ARGS = {
    "ed": lambda m, s, series, d: ("--matrix", m, "--bootstrap-iters", "20"),
    "corr": lambda m, s, series, d: ("--suite", s),
    "ceiling": lambda m, s, series, d: ("--rho", "0.5"),
    "workflow": lambda m, s, series, d: ("--suite", s, "--ed-series", series),
    "select": lambda m, s, series, d: ("--matrix", m, "--k", "1"),
    "compress": lambda m, s, series, d: ("--matrix", m, "--trials", "3"),
    "saturate": lambda m, s, series, d: ("--points", series),
    "trend": lambda m, s, series, d: ("--series", series),
    "synth": lambda m, s, series, d: (
        "--k", "1", "--tasks", "20", "--models", "8", "--out-matrix", d / "synth.csv"
    ),
    "suite": lambda m, s, series, d: ("--suite", s, "--samples", "50"),
}
SEEDED = {"ed", "select", "compress", "synth", "suite"}


class TestEnvelope:
    """``main`` writes every report: the same envelope for each subcommand,
    the same bytes to stdout and ``--out``, then the note on stderr."""

    def test_every_subcommand_is_covered(self):
        sub = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(sub.choices) == sorted(ENVELOPE_ARGS)

    @pytest.mark.parametrize("command", sorted(ENVELOPE_ARGS))
    def test_one_report_shape(self, capsys, tmp_path, toy_matrix, command):
        series = tmp_path / "series.csv"
        series.write_text(
            "x,ed\n" + "\n".join(f"{i},{10.0 * i / (i + 3.0)}" for i in range(1, 11)),
            encoding="utf-8",
        )
        report = tmp_path / "report.json"
        suite = DATA / "toy_suite.csv"
        argv = [command, *ENVELOPE_ARGS[command](toy_matrix, suite, series, tmp_path)]
        argv += ["--out", report, *(["--seed", "5"] if command in SEEDED else [])]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        payload = json.loads(out)
        assert list(payload) == ["command", "version", "seed", "inputs", "result"]
        assert payload["command"] == command
        assert payload["seed"] == (5 if command in SEEDED else None)
        assert report.read_bytes() == out.encode("utf-8")
        assert len(err.splitlines()) == (4 if command == "workflow" else 1)

    def test_unopenable_out_exits_2_after_the_report(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "ceiling", "--rho", "0.5", "--out", tmp_path / "missing" / "report.json"
        )
        assert code == 2
        assert json.loads(out)["command"] == "ceiling"
        assert err.startswith("input error: ")
        assert len(err.splitlines()) == 1


class TestDigest:
    def test_streams_a_file_larger_than_one_block(self, tmp_path):
        """The digest is the SHA-256 of the file's bytes, read a block at a
        time: hashing 4 blocks may not hold more than 2 blocks at once."""
        data = np.random.default_rng(0).bytes(4 * _DIGEST_BLOCK + 123)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            got = _digest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
        assert peak < 2 * _DIGEST_BLOCK


class TestSelect:
    def test_k1_tie_break_max_variance(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        # t_half has variance 0.25; others lower
        p.write_text(
            "task_id,a,b,c,d\n"
            "t_rare,1,0,0,0\n"
            "t_half,1,1,0,0\n"
            "t_most,1,1,1,0\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "select", "--matrix", p, "--method", "ed_greedy", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["selected"] == ["t_half"]
        assert payload["result"]["ed_trajectory"] == [1.0]

    def test_random_seeded(self, capsys, toy_matrix):
        _, out1, _ = run(
            capsys, "select", "--matrix", toy_matrix, "--method", "random", "--k", "2", "--seed", "3"
        )
        _, out2, _ = run(
            capsys, "select", "--matrix", toy_matrix, "--method", "random", "--k", "2", "--seed", "3"
        )
        assert out1 == out2


class TestSynthPipeline:
    def test_synth_then_ed(self, capsys, tmp_path):
        matrix_path = tmp_path / "synth.csv"
        code, out, _ = run(
            capsys,
            "synth", "--k", "5", "--tasks", "200", "--models", "60",
            "--scale", "2.0", "--seed", "9", "--out-matrix", matrix_path,
        )
        assert code == 0
        code, out, _ = run(capsys, "ed", "--matrix", matrix_path, "--bootstrap-iters", "0")
        assert code == 0
        assert json.loads(out)["result"]["ed"] > 3.0

    def test_synth_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "synth", "--k", "2", "--tasks", "30", "--models", "10", "--seed", "4", "--out-matrix", p1)
        run(capsys, "synth", "--k", "2", "--tasks", "30", "--models", "10", "--seed", "4", "--out-matrix", p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorrAndSuite:
    def test_corr_flags_clone(self, capsys):
        code, out, _ = run(capsys, "corr", "--suite", DATA / "toy_suite.csv")
        assert code == 0
        payload = json.loads(out)
        red = payload["result"]["redundant_pairs"]
        assert len(red) == 1
        assert sorted(red[0][:2]) == ["bbh_like", "mmlu_like"]

    def test_corr_csv_output(self, capsys, tmp_path):
        dest = tmp_path / "corr.csv"
        run(capsys, "corr", "--suite", DATA / "toy_suite.csv", "--csv", dest)
        assert dest.read_text().startswith("id,bbh_like")

    def test_corr_rejects_vet(self, capsys):
        """corr reports no vetting step; --vet belongs to workflow only."""
        with pytest.raises(SystemExit) as exc:
            run(capsys, "corr", "--suite", DATA / "toy_suite.csv", "--vet", "0.5")
        assert exc.value.code == 2
        assert "--vet" in capsys.readouterr().err

    def test_suite_report(self, capsys):
        code, out, _ = run(
            capsys, "suite", "--suite", DATA / "toy_suite.csv", "--samples", "200"
        )
        assert code == 0
        payload = json.loads(out)["result"]
        assert 1.0 <= payload["ed"] <= 5.0
        assert math.isclose(
            payload["information_density"], payload["ed"] / 5, rel_tol=1e-12
        )
        assert set(payload["leave_one_out"]) == {
            "bbh_like", "mmlu_like", "ifeval_like", "musr_like", "gpqa_like"
        }
        assert 0.0 <= payload["fragility"]["champion_change_rate"] <= 1.0


class TestWorkflow:
    def test_ed_series_out_of_order_exits_2_at_its_line(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("x,ed\n1,3.0\n3,2.8\n2,2.5\n4,2.1\n5,2.0\n", encoding="utf-8")
        code, out, err = run(capsys, "workflow", "--ed-series", series)
        assert (code, out) == (2, "")
        assert "series.csv:4: x must be strictly increasing, got '2' after '3'" in err

    def test_full_run_flags_exactly_clone_pair(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text(
            "x,ed\n" + "\n".join(f"{i},{3.0 - 0.15 * i}" for i in range(10)),
            encoding="utf-8",
        )
        cands = tmp_path / "cands.csv"
        # candidate 1 clones bbh_like; candidate 2 is fresh noise
        suite_lines = (DATA / "toy_suite.csv").read_text().splitlines()
        header = suite_lines[0].replace("benchmark", "benchmark")
        bbh_row = suite_lines[1].split(",")
        rng = np.random.default_rng(1)
        fresh = rng.random(len(bbh_row) - 1)
        cands.write_text(
            header + "\n"
            + "clone_candidate," + ",".join(bbh_row[1:]) + "\n"
            + "fresh_candidate," + ",".join(f"{v:.4f}" for v in fresh) + "\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys,
            "workflow", "--suite", DATA / "toy_suite.csv",
            "--ed-series", series, "--candidates", cands,
        )
        assert code == 0
        payload = json.loads(out)["result"]
        red = payload["step1_redundancy"]["redundant_pairs"]
        assert len(red) == 1 and sorted(red[0][:2]) == ["bbh_like", "mmlu_like"]
        assert payload["step2_suite_ed"]["ed"] > 0
        assert payload["step3_trend"]["declining"]
        cands_out = payload["step4_vet"]["candidates"]
        assert not cands_out["clone_candidate"]["passes_vet"]
        assert cands_out["clone_candidate"]["outright_redundant"]
        assert cands_out["fresh_candidate"]["passes_vet"]
        assert err.splitlines() == [
            "step 1 redundancy: 1 redundant pair(s)",
            "step 2 suite ED: effectively one-dimensional; adding benchmarks is the priority",
            "step 3 trend: sustained decline: population may be homogenizing",
            "step 4 vetting: ok",
        ]

    def test_missing_steps_skipped(self, capsys):
        code, out, err = run(capsys, "workflow", "--suite", DATA / "toy_suite.csv")
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["step3_trend"]["status"] == "skipped"
        assert payload["step4_vet"]["status"] == "skipped"
        assert payload["step1_redundancy"]["status"] == "ok"
        assert err.splitlines() == [
            "step 1 redundancy: 1 redundant pair(s)",
            "step 2 suite ED: effectively one-dimensional; adding benchmarks is the priority",
            "step 3 trend: skipped (no ED series provided)",
            "step 4 vetting: skipped (no candidates provided)",
        ]

    def test_single_candidate_clone_vets_fail(self, capsys, tmp_path):
        suite_lines = (DATA / "toy_suite.csv").read_text().splitlines()
        cands = tmp_path / "one.csv"
        cands.write_text(
            suite_lines[0] + "\nlone_clone," + suite_lines[1].split(",", 1)[1] + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "workflow", "--suite", DATA / "toy_suite.csv", "--candidates", cands
        )
        assert code == 0
        vet = json.loads(out)["result"]["step4_vet"]["candidates"]["lone_clone"]
        assert not vet["passes_vet"]
        assert vet["outright_redundant"]

    def test_candidate_max_rho_matches_rank_reference(self, capsys, tmp_path):
        from scipy.stats import rankdata

        suite_lines = (DATA / "toy_suite.csv").read_text().splitlines()
        suite = np.array([[float(v) for v in line.split(",")[1:]] for line in suite_lines[1:]])
        rng = np.random.default_rng(4)
        cands = np.vstack([rng.random((3, suite.shape[1])), np.full(suite.shape[1], 0.5)])
        p = tmp_path / "cands.csv"
        p.write_text(
            suite_lines[0] + "\n"
            + "\n".join(f"c{i}," + ",".join(map(str, row)) for i, row in enumerate(cands)),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "workflow", "--suite", DATA / "toy_suite.csv", "--candidates", p)
        assert code == 0
        vet = json.loads(out)["result"]["step4_vet"]["candidates"]
        for i, row in enumerate(cands[:3]):
            rhos = [np.corrcoef(rankdata(row), rankdata(b))[0, 1] for b in suite]
            assert abs(vet[f"c{i}"]["max_rho"] - max(rhos)) <= 1e-12
            assert vet[f"c{i}"]["against"] == suite_lines[1 + int(np.argmax(rhos))].split(",")[0]
        assert vet["c3"]["max_rho"] is None and vet["c3"]["against"] is None

    def test_identical_suite_verdict(self, capsys, tmp_path):
        p = tmp_path / "flat.csv"
        rng = np.random.default_rng(2)
        col = rng.random(8)
        p.write_text(
            "benchmark," + ",".join(f"m{j}" for j in range(8)) + "\n"
            + "\n".join(
                f"b{i}," + ",".join(f"{v:.4f}" for v in col) for i in range(3)
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "workflow", "--suite", p)
        payload = json.loads(out)["result"]
        assert math.isclose(payload["step2_suite_ed"]["ed"], 1.0, rel_tol=1e-9)
        assert "one-dimensional" in payload["step2_suite_ed"]["verdict"]


class TestTrendAndSaturate:
    def test_trend_command(self, capsys, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("x,ed\n" + "\n".join(f"{i},{i * 0.5}" for i in range(1, 11)), encoding="utf-8")
        code, out, _ = run(capsys, "trend", "--series", p)
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["tau"] == 1.0
        assert payload["p"] < 0.01
        assert math.isclose(payload["tid_slope"], 0.5, rel_tol=1e-9)

    def test_saturate_command(self, capsys, tmp_path):
        p = tmp_path / "pts.csv"
        n = np.arange(10.0, 151.0, 10.0)
        ed = 35.4 * n / (n + 35.0)
        p.write_text(
            "n,ed\n" + "\n".join(f"{a},{b}" for a, b in zip(n, ed)), encoding="utf-8"
        )
        code, out, _ = run(capsys, "saturate", "--points", p)
        assert code == 0
        payload = json.loads(out)["result"]
        assert abs(payload["ed_inf"] - 35.4) / 35.4 < 0.01
        assert abs(payload["n_half"] - 35.0) / 35.0 < 0.01

    def test_saturate_takes_repeated_n_in_any_order(self, capsys, tmp_path):
        """n is a value, not a row id: the fit sees the points as written."""
        points = [(40.0, 18.1), (20.0, 12.0), (40.0, 17.6), (80.0, 24.0), (20.0, 12.4)]
        p = tmp_path / "pts.csv"
        p.write_text("n,ed\n" + "".join(f"{n:g},{ed}\n" for n, ed in points), encoding="utf-8")
        code, out, _ = run(capsys, "saturate", "--points", p)
        assert code == 0
        result = json.loads(out)["result"]
        assert result.pop("points") == len(points)
        assert result == asdict(saturation_fit(np.array(points)))

    def test_saturate_rejection_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("n,ed\n10,5\n20,-3\n30,6\n", encoding="utf-8")
        code, _, err = run(capsys, "saturate", "--points", p)
        assert code == 1

    def test_trend_note_keeps_p_magnitude(self, capsys, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text(
            "x,ed\n" + "\n".join(f"{i},{40 - 0.5 * i}" for i in range(1, 41)), encoding="utf-8"
        )
        code, out, err = run(capsys, "trend", "--series", p)
        assert code == 0
        assert json.loads(out)["result"]["p"] < 1e-18
        assert "(p 1.12e-19)" in err

    def test_ed_series_csv_reads_back_every_point(self, capsys, tmp_path):
        series = EdSeries(x=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0), ed=(3.1, 2.9, 3.0, 2.6, 2.2, 2.25))
        p = tmp_path / "series.csv"
        series.save_csv(p)
        code, out, _ = run(capsys, "trend", "--series", p)
        assert code == 0
        result = json.loads(out)["result"]
        mk = mann_kendall(series.ed)
        assert result["points"] == len(series.x)
        assert (result["tau"], result["s"]) == (mk.tau, mk.s)
        assert result["tid_slope"] == temporal_information_density(series)


def _grid_text(header, ids, defect):
    """CSV grid text whose second row, file line 3, carries ``defect``."""
    rng = np.random.default_rng(0)
    rows = [[i, *(f"{v:.3f}" for v in rng.random(len(header) - 1))] for i in ids]
    bad = rows[1]
    if defect == "ragged":
        del bad[-1]
    elif defect == "duplicate id":
        bad[0] = rows[0][0]
    else:
        bad[2] = {"non-numeric": "oops", "inf": "inf", "blank": ""}[defect]
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


GRID_DEFECTS = ("ragged", "non-numeric", "inf", "blank", "duplicate id")
SERIES_DEFECTS = {
    "non-numeric value": ("x,ed\n1,3.0\n2,2.8\n3,oops\n4,2.1\n", 4),
    "non-numeric x": ("x,ed\n1,3.0\nsecond,2.8\n3,2.5\n4,2.1\n", 3),
    "underscore x": ("x,ed\n1,3.0\n2,2.8\n3_0,2.5\n4,2.1\n", 4),
    "non-ASCII x": ("x,ed\n1,3.0\n\u0662,2.8\n3,2.5\n4,2.1\n", 3),
    "one-field row": ("x,ed\n1,3.0\n2,2.8\n3\n4,2.1\n", 4),
    "missing value": ("x,ed\n1,3.0\n2,\n3,2.5\n4,2.1\n", 3),
    "headerless": ("1,3.0\n2,2.8\n3,2.5\n4,2.1\n", 1),
    "x out of order": ("x,ed\n1,3.0\n3,2.8\n2,2.5\n4,2.1\n5,2.0\n", 4),
    "repeated x": ("x,ed\n1,3.0\n2,2.8\n\n2.0,2.5\n4,2.1\n", 5),
}


def _malformed_case(kind, defect, tmp_path):
    """argv and file name for one malformed input of the grid-file table."""
    if kind == "series":
        text, line = SERIES_DEFECTS[defect]
        (tmp_path / "series.csv").write_text(text, encoding="utf-8")
        return ["trend", "--series", tmp_path / "series.csv"], f"series.csv:{line}:"
    if kind == "suite":
        header = ["benchmark", "m1", "m2", "m3", "m4"]
        argv = ["suite", "--suite", tmp_path / "suite.csv"]
    else:
        header = (DATA / "toy_suite.csv").read_text().splitlines()[0].split(",")
        cands = tmp_path / "cands.csv"
        argv = ["workflow", "--suite", DATA / "toy_suite.csv", "--candidates", cands]
    argv[-1].write_text(_grid_text(header, ["a", "b", "c"], defect), encoding="utf-8")
    return argv, f"{argv[-1].name}:3:"


class TestGridFileContract:
    @pytest.mark.parametrize(
        "kind, defect",
        [("suite", d) for d in GRID_DEFECTS]
        + [("candidates", d) for d in GRID_DEFECTS]
        + [("series", d) for d in SERIES_DEFECTS],
    )
    def test_malformed_file_exits_2_with_file_line(self, capsys, tmp_path, kind, defect):
        argv, where = _malformed_case(kind, defect, tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert where in err


class TestCompress:
    def test_compress_csv_plot_data(self, capsys, toy_matrix, tmp_path):
        dest = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "compress", "--matrix", toy_matrix, "--trials", "3", "--csv", dest,
        )
        assert code == 0
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "fraction,mean_tau"
        assert len(lines) > 5

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_rejected(self, capsys, toy_matrix, trials):
        code, out, err = run(capsys, "compress", "--matrix", toy_matrix, "--trials", trials)
        assert code == 1
        assert out == ""
        assert f"analysis rejected: trials must be at least 1, got {trials}" in err


    def test_csv_reads_back_through_grid_reader(self, capsys, toy_matrix, tmp_path):
        dest = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "compress", "--matrix", toy_matrix, "--trials", "3", "--csv", dest
        )
        assert code == 0
        curve = json.loads(out)["result"]["curve"]
        corner, fractions, cols, values, missing, _ = _read_csv_grid(dest, "point", "column")
        assert (corner, cols) == ("fraction", ["mean_tau"])
        assert [float(f) for f in fractions] == [f for f, _ in curve]
        # every tau on this grid is undefined: an empty field, read back as missing
        assert all(t is None for _, t in curve)
        assert missing.all() and np.isnan(values).all()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [["select", "--k", "2"], ["compress", "--trials", "3"]],
        ids=lambda argv: argv[0],
    )
    def test_undefined_tau_is_null(self, capsys, toy_matrix, argv):
        code, out, _ = run(capsys, argv[0], "--matrix", toy_matrix, *argv[1:])
        assert code == 0
        result = json.loads(out, parse_constant=_reject_constant)["result"]
        if argv[0] == "select":
            assert result["tau_vs_full"] is None
        else:
            assert [t for _, t in result["curve"]] == [None] * len(result["curve"])


class TestRepeatability:
    def test_ed_bootstrap_rerun_byte_identical(self, capsys, toy_matrix):
        argv = ("ed", "--matrix", toy_matrix, "--seed", "3", "--bootstrap-iters", "50")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_select_random_rerun_byte_identical(self, capsys, toy_matrix):
        argv = (
            "select", "--matrix", toy_matrix, "--method", "random", "--k", "2", "--seed", "4"
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def run_python(args, cwd):
    """Run a fresh interpreter with the package's source tree on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


# Runs the CLI in-process, then reports which heavy scipy modules it loaded.
LOADED_AFTER = """
import json, sys
import spectradiag, spectradiag.cli
code = spectradiag.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, "scipy.stats" in sys.modules, "scipy.special" in sys.modules]))
"""


class TestStartup:
    def test_import_loads_no_scipy_stats_or_special(self, tmp_path):
        proc = run_python(["-c", LOADED_AFTER], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, False]

    def test_import_leaves_numpy_polynomial_unloaded(self, tmp_path):
        """The quadrature nodes are computed on first use, not at import."""
        code = "import sys, spectradiag, spectradiag.cli; print('numpy.polynomial' in sys.modules)"
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ed", "--matrix", "toy.csv", "--bootstrap-iters", "50"],
            ["ceiling", "--rho", "0.5"],
            ["saturate", "--points", "pts.csv"],
            ["synth", "--k", "2", "--tasks", "20", "--models", "8", "--out-matrix", "s.csv"],
            ["trend", "--series", "series.csv"],
            ["corr", "--suite", str(DATA / "toy_suite.csv"), "--method", "pearson"],
            ["select", "--matrix", "toy.csv", "--k", "2"],
            ["compress", "--matrix", "toy.csv", "--trials", "3"],
            ["suite", "--suite", str(DATA / "toy_suite.csv")],
            pytest.param(
                ["corr", "--suite", str(DATA / "toy_suite.csv"), "--method", "kendall"],
                id="corr-kendall",
            ),
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_never_loads_scipy_stats(self, tmp_path, toy_matrix, argv):
        n = np.arange(10.0, 151.0, 10.0)
        (tmp_path / "pts.csv").write_text(
            "n,ed\n" + "\n".join(f"{a},{35.4 * a / (a + 35.0)}" for a in n), encoding="utf-8"
        )
        (tmp_path / "series.csv").write_text(
            "x,ed\n" + "\n".join(f"{i},{40 - 0.5 * i}" for i in range(1, 41)), encoding="utf-8"
        )
        proc = run_python(["-c", LOADED_AFTER, *argv], tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, stats_loaded, _ = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert not stats_loaded

    def test_python_dash_m_help(self, tmp_path):
        proc = run_python(["-m", "spectradiag", "--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "usage: spectradiag" in proc.stdout
