"""One measured run of a job, in its own process.

Usage: python3 worker.py --job FILE:FUNC --seed N --trace 0|1 --seconds S \\
           --workdir DIR --rows FILE

The process times ``import spectradiag`` before it imports anything else from
the scientific stack. Without tracing it then times the import twice more in
fresh interpreters and sets the job up three times, so each set-up time
(one import, one input generation, one warm-up call) is a median of three.
Then it repeats the job in passes for about ``--seconds``.
Pass 0 is a warm-up: its ops are checked but its time is not counted,
because a fresh process's first calls pay one-off costs (allocator growth,
first-touch page faults) that vary widely from run to run.
With ``--trace 1`` the later passes alternate untraced and traced, and the
tracer is installed only for the traced ones.

Writes one JSON object per line to ``--rows`` and flushes after each, so a
crash leaves every finished op on record: ``plan`` (op names), ``setup``,
``pass`` (before each pass), ``op``, ``trace`` (after each traced pass) and
``end``. The spans of the traced passes are written next to the rows file
when the run ends.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
UNTRACED_SETUPS = 3
IMPORT = "import spectradiag, spectradiag.cli"


def time_import_in_child() -> float:
    """Seconds a fresh interpreter takes to import the package from ``src``."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC_DIR)!r}); "
        f"t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def load_job(spec: str):
    """``path/to/file.py:function`` -> the job factory it names."""
    path, _, attr = spec.rpartition(":")
    module_spec = importlib.util.spec_from_file_location(Path(path).stem, path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module
    module_spec.loader.exec_module(module)
    return getattr(module, attr)


class Rows:
    def __init__(self, path: str):
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, kind: str, **fields) -> None:
        self._fh.write(json.dumps({"kind": kind, **fields}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def run_ops(job, state: dict, rows: Rows, index: int, tracer=None) -> tuple[float, list]:
    """One pass: time each op alone, then check its result untimed.

    A raise or a failed check is a row, not an exception. Returns the pass's
    wall seconds summed over its ops and, when traced, the ops whose spans
    include a call the tracer measures memory for.
    """
    if tracer is not None:
        from tracing import PEAK_MEMORY
    job_s = 0.0
    memory_ops = []
    for op in job.ops:
        error = None
        first_span = len(tracer.spans) if tracer is not None else 0
        cpu0, t0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.recording = True
        try:
            result = op.run(state)
        except Exception:
            result, error = None, traceback.format_exc(limit=8)
        finally:
            if tracer is not None:
                tracer.recording = False
        seconds = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        job_s += seconds
        if tracer is not None and any(
            sp.name in PEAK_MEMORY for sp in tracer.spans[first_span:]
        ):
            memory_ops.append(op)
        state[op.name] = result
        if error is None:
            try:
                op.check(result, state)
            except Exception:
                error = "check failed: " + traceback.format_exc(limit=8)
        rows.emit("op", index=index, op=op.name, ok=error is None, s=seconds, cpu_s=cpu_s,
                  error=error)
    return job_s, memory_ops


def probe_memory(tracer, memory_ops, state: dict) -> list:
    """Re-run the given ops untimed and unchecked, with tracemalloc on around
    the calls the tracer measures memory for, and return their spans."""
    job_spans, tracer.spans = tracer.spans, []
    tracer.measure_memory = tracer.recording = True
    try:
        for op in memory_ops:
            op.run(state)
    finally:
        tracer.measure_memory = tracer.recording = False
        probe_spans, tracer.spans = tracer.spans, job_spans
    return probe_spans


def pass_kind(index: int, trace: bool) -> str:
    if index == 0:
        return "warmup"
    return "traced" if trace and index % 2 == 0 else "plain"


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--rows", required=True)
    args = parser.parse_args(argv)

    # A crash must not leave a core file in the checkout.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    rows = Rows(args.rows)
    sys.path.insert(0, str(SRC_DIR))
    t0 = time.perf_counter()
    import spectradiag
    import spectradiag.cli  # noqa: F401

    import_times = [time.perf_counter() - t0]
    if Path(spectradiag.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"imported spectradiag from {spectradiag.__file__}, not {SRC_DIR}")

    job = load_job(args.job)(args.seed, Path(args.workdir))
    rows.emit("plan", ops=[op.name for op in job.ops])

    tracer = None
    if args.trace:
        from layers import make_tracer, per_layer_metrics

        tracer = make_tracer()
    else:
        import_times += [time_import_in_child() for _ in range(UNTRACED_SETUPS - 1)]
    import_s = import_times[0]
    setup_spans: list = []
    for i, import_i in enumerate(import_times):
        if tracer is not None:
            tracer.install()
            tracer.recording = True
        t1 = time.perf_counter()
        state = job.setup()
        t2 = time.perf_counter()
        job.warmup(state)
        t3 = time.perf_counter()
        if tracer is not None:
            setup_spans, tracer.spans = tracer.spans, []
            tracer.uninstall()
        rows.emit("setup", index=i, import_s=import_i, inputs_s=t2 - t1, warmup_s=t3 - t2,
                  setup_s=import_i + t3 - t1)

    traced_spans: list = []
    memory_spans = None
    counted: list[float] = []
    index = 0
    while True:
        kind = pass_kind(index, bool(tracer))
        rows.emit("pass", index=index, run=kind)
        t_pass = time.perf_counter()
        if kind == "traced":
            tracer.install()
            job_s, memory_ops = run_ops(job, state, rows, index, tracer)
            if memory_spans is None:
                memory_spans = probe_memory(tracer, memory_ops, state)
            tracer.uninstall()
            metrics = per_layer_metrics(tracer.spans, setup_spans, memory_spans, job_s, import_s)
            rows.emit("trace", index=index, metrics={k: v for k, (v, _) in metrics.items()},
                      units={k: u for k, (_, u) in metrics.items()})
            traced_spans.append([asdict(s) for s in tracer.spans])
            tracer.spans = []
        else:
            run_ops(job, state, rows, index)
        if kind != "warmup":
            counted.append(time.perf_counter() - t_pass)
        index += 1
        # Start another pass while at least half of it fits, so that runs
        # last ``--seconds`` on average.
        longest = max(counted, default=time.perf_counter() - t_pass)
        enough = index >= (3 if tracer else 2)
        if enough and time.perf_counter() - started + longest / 2 > args.seconds:
            break

    if traced_spans:
        with open(Path(args.rows).with_suffix(".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"setup": [asdict(s) for s in setup_spans], "passes": traced_spans}, fh)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows.emit("end", peak_rss_mb=peak_kib * 1024 / 1e6)
    rows.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
