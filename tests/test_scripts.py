"""The experiment scripts under ``scripts/`` run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "run_aging_demo.py": ["--window", "60", "--step", "30", "--series-csv", "{tmp}/series.csv"],
    "run_rank_recovery.py": [
        "--ks", "1,3", "--seeds", "2", "--tasks", "100", "--models", "30",
        "--out", "{tmp}/report.json",
    ],
    "run_selection_comparison.py": [
        "--k-true", "5", "--tasks", "80", "--models", "30", "--budgets", "5,10",
        "--csv", "{tmp}/table.csv",
    ],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args = [a.format(tmp=tmp_path) for a in SCRIPTS[script]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    # Each argument list ends with the file the script writes.
    assert Path(args[-1]).stat().st_size > 0


def test_every_script_is_covered():
    assert sorted(SCRIPTS) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
