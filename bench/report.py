"""Run every workload over several seeds and print the end-to-end metrics.

    python3 bench/report.py                      # seeds 1 and 2: the reseed check
    python3 bench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --save a.json
    python3 bench/report.py --seeds 11 12 13 14 15 16 17 18 19 20 --compare a.json

Every workload in ``BENCHMARK.json`` runs once per seed, each run lasting
its ``run_seconds``. For each workload and end-to-end metric it prints the median over seeds, the
quartiles and their distance as a share of the median (the spread), next to
the metric's bound from ``BENCHMARK.json``; ``failed_op_frac`` is failed ops
over attempted ops. With ``--compare`` it also prints how far each median
moved from a saved set, against the bound. Exits 1 if any run failed an op
or a correctness check, on any seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    for line in lines[:-1]:
        if "FAILED" in line:
            print(f"  {workload} seed {seed}: {line.strip()}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(name: str, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if BOUNDS[name]["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="JSON file from an earlier --save")
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            res = run_once(workload, seed)
            results.setdefault(workload, []).append(res | {"seed": seed})
            summary = "  ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload:15s} seed {seed:3d}  correct {res['correct']}  "
                  f"failed {res['failed']}/{res['attempted']}  {summary}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    before = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    print(f"\n{'workload':15s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  vs saved" if before else ""))
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0 and all(r["correct"] for r in runs)
        for name, spec in BOUNDS.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            med, q1, q3, sp = spread(values)
            flag = " !" if sp > spec["bound"] else (" ~" if sp > spec["bound"] / 3 else "")
            line = (f"{workload:15s} {name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                    f"{sp:7.3f} {spec['bound']:6.2f}{flag:2s}")
            old = [r["metrics"][name]["value"] for r in before.get(workload, [])
                   if name in r["metrics"]]
            if old:
                worse = worse_by(name, med, statistics.median(old))
                line += f"  worse by {worse:+.3f}" + (" !" if worse > spec["bound"] else "")
            print(f"{line}  [{spec['unit']}]")
        print(f"{workload:15s} {'failed_op_frac':14s} {failed / attempted:10.4f}"
              f"{'':34s}  [frac]  ({failed}/{attempted} ops, {len(runs)} seeds)")
    print("\nspread = (q3 - q1) / median over seeds;  ! above the bound,  ~ above a third of it")
    if not ok:
        print("FAILED: an op or a correctness check failed; see the rows above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
