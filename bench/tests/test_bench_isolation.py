"""A failing or crashing op becomes a failure row; the harness keeps going."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

FAKE = Path(__file__).with_name("fake_jobs.py")


def _run(tmp_path, job):
    worker = run.run_worker(f"{FAKE}:{job}", 0, 0, 1.0, tmp_path, timeout=120.0)
    return worker, run.summarize(worker)


def test_raising_and_crashing_ops_become_failure_rows(tmp_path):
    worker, summary = _run(tmp_path, "failing")
    assert worker["returncode"] < 0  # the worker really died
    errors = {f["op"]: f["error"] for f in summary["failures"]}
    assert summary["attempted"] == 5
    assert summary["failed"] == 4
    assert "ok" not in errors
    assert "ValueError: injected failure" in errors["raises"]
    assert errors["bad_result"].startswith("check failed")
    assert errors["segfault"] == "process killed by SIGSEGV"
    assert errors["after_crash"].startswith("not run")


def test_crash_before_any_op_fails_every_op(tmp_path):
    _, summary = _run(tmp_path, "crashing_setup")
    assert summary["attempted"] == 1
    assert summary["failures"] == [
        {"pass": 0, "op": "ok", "error": "process killed by SIGSEGV"}
    ]
