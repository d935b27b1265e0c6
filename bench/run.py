"""spectradiag benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload ed_report --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run happens in one worker process (``worker.py``): import, the
inputs generated from the seed, one warm-up call, then the job repeated in
passes, one client, closed loop, for about ``--seconds``. Every op's output
is checked after it returns, outside the timed region. An op that raises,
fails its check, or kills the worker turns into failure rows here, never
into a crash of this script.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians; with ``--trace 1`` it reports the per-layer metrics from spans
recorded around calls into each module. The environment, every failure row
and the per-pass figures are printed before it and written to
``bench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
# The workload names are those of BENCHMARK.json; each is a job function
# of the same name in workloads.py.
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# A run must end within 180 s: the worker is killed at this age.
HARD_LIMIT_S = 165.0
UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_op_frac": "frac"}


def run_worker(job: str, seed: int, trace: int, seconds: float, workdir: Path,
               timeout: float = HARD_LIMIT_S) -> dict:
    """Run the worker to its end; return its rows, exit status and wall time."""
    rows_path = workdir / "rows.jsonl"
    log_path = workdir / "worker.log"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--job", job,
        "--seed", str(seed),
        "--trace", str(trace),
        "--seconds", str(seconds),
        "--workdir", str(workdir),
        "--rows", str(rows_path),
    ]
    t0 = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()
            timed_out = True
    rows = []
    if rows_path.exists():
        with open(rows_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.endswith("\n")]
    return {
        "rows": rows,
        "returncode": code,
        "timed_out": timed_out,
        "wall_s": time.perf_counter() - t0,
    }


def _exit_reason(worker: dict) -> str:
    if worker["timed_out"]:
        return "killed after the run's time limit"
    code = worker["returncode"]
    if code < 0:
        return f"process killed by {signal.Signals(-code).name}"
    return f"process exited with code {code}"


def summarize(worker: dict) -> dict:
    """Attempted and failed op counts, one failure row per failed op, and
    the per-pass figures.

    Every op of every pass the worker started counts as attempted. Ops it
    never reported (it died first) fail with the process's exit reason; a
    worker that died before reporting its plan counts as one failed op.
    """
    by_kind: dict[str, list[dict]] = {}
    for row in worker["rows"]:
        by_kind.setdefault(row["kind"], []).append(row)
    plan = by_kind.get("plan", [None])[0]
    passes = by_kind.get("pass", []) or ([{"index": 0, "run": "warmup"}] if plan else [])
    ops = by_kind.get("op", [])
    failures = [
        {"pass": r["index"], "op": r["op"], "error": r["error"]} for r in ops if not r["ok"]
    ]
    clean_exit = worker["returncode"] == 0 and not worker["timed_out"] and "end" in by_kind
    if plan is None:
        attempted = 1
        failures.append({"pass": None, "op": "worker", "error": _exit_reason(worker)})
    else:
        attempted = len(plan["ops"]) * len(passes)
        seen = {(r["index"], r["op"]) for r in ops}
        missing = [(p["index"], op) for p in passes for op in plan["ops"]
                   if (p["index"], op) not in seen]
        for i, (index, op) in enumerate(missing):
            error = _exit_reason(worker) if i == 0 else "not run: the worker ended first"
            failures.append({"pass": index, "op": op, "error": error})
        if not missing and not clean_exit:
            attempted += 1
            failures.append({"pass": None, "op": "worker", "error": _exit_reason(worker)})
    per_pass = []
    for p in passes:
        mine = [r for r in ops if r["index"] == p["index"]]
        per_pass.append({
            "index": p["index"],
            "run": p["run"],
            "complete": len(mine) == len(plan["ops"]) if plan else False,
            "job_s": sum(r["s"] for r in mine),
            "cpu_s": sum(r["cpu_s"] for r in mine),
            "op_s": {r["op"]: r["s"] for r in mine},
        })
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": per_pass,
        "setups": by_kind.get("setup", []),
        "traces": by_kind.get("trace", []),
        "peak_rss_mb": by_kind["end"][0]["peak_rss_mb"] if "end" in by_kind else None,
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _job_times(summary: dict, run: str) -> list[float]:
    return [p["job_s"] for p in summary["passes"] if p["run"] == run and p["complete"]]


def end_to_end(summary: dict) -> dict:
    """Medians over the run's counted passes and set-ups."""
    return {
        "job_s": _median(_job_times(summary, "plain")),
        "setup_s": _median(s["setup_s"] for s in summary["setups"]),
        "peak_rss_mb": summary["peak_rss_mb"] or 0.0,
        "ok_op_frac": 1.0 - summary["failed"] / summary["attempted"],
    }


def per_layer(summary: dict) -> tuple[dict, dict]:
    """Medians of the traced passes' metrics, plus the two that compare
    traced with untraced passes of the same process."""
    traces, plain = summary["traces"], _job_times(summary, "plain")
    if not traces or not plain:
        return {}, {}
    values = {k: _median(t["metrics"][k] for t in traces) for k in traces[0]["metrics"]}
    units = dict(traces[0]["units"])
    # -> job_s: a parallel change raises it.
    values["process.cpu_util"] = _median(
        p["cpu_s"] / p["job_s"] for p in summary["passes"]
        if p["run"] == "plain" and p["complete"]
    )
    values["trace.overhead_frac"] = _median(_job_times(summary, "traced")) / _median(plain) - 1.0
    units.update({"process.cpu_util": "frac", "trace.overhead_frac": "frac"})
    return values, units


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SPECTRADIAG_THREADS",
)


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process (it is left at its default)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spectradiag benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "spectradiag" / "__init__.py").is_file():
        print(f"no spectradiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    job = f"{BENCH_DIR / 'workloads.py'}:{args.workload}"
    worker = run_worker(job, args.seed, args.trace, args.seconds, workdir)
    summary = summarize(worker)
    if args.trace:
        values, units = per_layer(summary)
    else:
        values, units = end_to_end(summary), UNITS
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "wall_s": worker["wall_s"],
        "returncode": worker["returncode"],
        "metrics": values,
    } | {k: summary[k] for k in ("attempted", "failed", "failures", "setups", "passes")}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(env))
    for s in summary["setups"]:
        print(f"setup {s['index']}: {s['setup_s']:.3f} s (import {s['import_s']:.3f} s)")
    for p in summary["passes"]:
        print(f"pass {p['index']} ({p['run']}): job_s {p['job_s']:.3f}")
    for f in summary["failures"]:
        last = f["error"].strip().splitlines()[-1:] or [""]
        print(f"FAILED pass {f['pass']} {f['op']}: {last[0]}")
    for name, value in values.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
