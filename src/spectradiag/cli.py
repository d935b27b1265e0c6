"""Command-line orchestration of the diagnostic workflow and module ops.

Every subcommand is a pure function of its input files and flags. Each
``cmd_*`` returns its ``(inputs, result, note)`` and writes nothing; ``main``
alone wraps them in the report ``{command, version, seed, inputs, result}``,
writes it as JSON with stable key order to stdout (and to ``--out``), and
then writes the note to stderr. Only the subcommands that draw (ed, select,
compress, synth, suite) take ``--seed``, so ``"seed"`` is null exactly for
the others. Reports embed content digests of their inputs. Exit codes: 0 ok,
1 analysis rejected an input/fit, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .association import (
    pairwise_correlation,
    redundancy_flags,
    save_corr_csv,
)
from .composite import (
    ceiling_oracle,
    composite_ceiling,
    dirichlet_fragility,
    information_density,
    leave_one_out,
    load_suite,
    suite_ed,
)
from .matrix_io import (
    BinarizationPolicy,
    MatrixValidationError,
    _parse_cells,
    _read_csv_grid,
    _write_csv_grid,
    binarize,
    impute_missing,
    load_matrix,
    save_matrix,
)
from .nulls import build_ed_report
from .selection import SELECTION_METHODS, baseline_select, compression_curve
from .spectral import CENTERING_SCHEMES
from .synthetic import LOADING_ORIENTATIONS, IrtSpec, gen_irt_matrix
from .temporal import EdSeries, mann_kendall, saturation_fit, temporal_information_density

__all__ = ["main"]

_DIGEST_BLOCK = 1 << 20


def _digest(path: str) -> dict:
    """The file's path and SHA-256, read into one buffer of ``_DIGEST_BLOCK`` bytes."""
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_BLOCK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            h.update(view[:size])
    return {"path": path, "sha256": h.hexdigest()}


def _json_safe(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _load_preprocessed(args) -> tuple:
    m = load_matrix(args.matrix, format=args.format)
    steps = []
    if m.kind == "continuous" and not args.no_binarize:
        m = binarize(m, BinarizationPolicy(threshold=args.binarize_threshold))
        steps.append(f"binarized at {args.binarize_threshold}")
    if not m.is_complete:
        m = impute_missing(m)
        steps.append("imputed missing cells with model means")
    return m, steps


def _read_series_csv(path: str, trend: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read an ``x,<value>`` series: a header, then one numeric point per row.

    x is a value under the grid's cell rule, not a row id, so repeats are
    allowed. A ``trend`` series (``trend`` and ``workflow``) rejects the
    first x not above the one before it at its line, and then a series of
    fewer than four points, the least the Mann-Kendall test takes.
    """
    corner, x_texts, cols, values, missing, linenos = _read_csv_grid(path, "point", "column")
    header, _, bad = _parse_cells([corner, *cols])
    if bad is None and not np.isnan(header).any():
        raise MatrixValidationError(f"{path}:1: expected a header row")
    if len(cols) != 1:
        raise MatrixValidationError(f"{path}:1: expected two columns, got {len(cols) + 1}")
    # x stops before its first non-numeric cell, so that point is x.size
    x, _, bad = _parse_cells(x_texts)
    x = np.array(x)
    invalid = ~np.isfinite(x) | missing[: x.size, 0]
    if invalid.any() or bad is not None:
        i = int(invalid.argmax()) if invalid.any() else x.size
        raise MatrixValidationError(
            f"{path}:{linenos[i]}: point {x_texts[i]!r} needs a numeric x and {cols[0]}"
        )
    if x.size < 2:
        raise MatrixValidationError(f"{path}: expected at least two points")
    if trend:
        flat = np.flatnonzero(x[1:] <= x[:-1])
        if flat.size:
            i = int(flat[0]) + 1
            raise MatrixValidationError(
                f"{path}:{linenos[i]}: x must be strictly increasing, "
                f"got {x_texts[i]!r} after {x_texts[i - 1]!r}"
            )
        if x.size < 4:
            raise MatrixValidationError(f"{path}: trend test needs at least four series points")
    return x, values[:, 0]


def cmd_ed(args) -> tuple[dict, dict, str]:
    m, steps = _load_preprocessed(args)
    report = build_ed_report(
        m,
        seed=args.seed,
        bootstrap_iterations=args.bootstrap_iters,
        scheme=args.centering,
    )
    result = asdict(report)
    result["kind"] = m.kind
    result["centering"] = args.centering
    result["preprocessing"] = steps
    note = (
        f"ED {report.ed:.3f} (null {report.ed_null:.1f}, ratio {report.ratio:.3f}) "
        f"on {m.n_tasks}x{m.n_models} {m.kind} matrix"
    )
    return {"matrix": _digest(args.matrix)}, result, note


def cmd_corr(args) -> tuple[dict, dict, str]:
    s = load_suite(args.suite)
    c = pairwise_correlation(s.benchmark_table(), ids=s.benchmark_ids, method=args.method)
    flags = redundancy_flags(c, hi=args.redundant, comp=args.complementary)
    result = {
        "ids": c.ids,
        "method": c.method,
        "values": c.values.tolist(),
        "degenerate_ids": c.degenerate_ids,
        "redundant_pairs": flags.redundant,
        "complementary_pairs": flags.complementary,
    }
    if args.csv:
        save_corr_csv(c, args.csv)
    note = f"{len(c.ids)}x{len(c.ids)} {c.method} correlation matrix"
    return {"suite": _digest(args.suite)}, result, note


def cmd_ceiling(args) -> tuple[dict, dict, str]:
    if not -1.0 < args.rho <= 1.0:
        raise MatrixValidationError("--rho must lie in (-1, 1]")
    value = composite_ceiling(args.rho)
    probe = ceiling_oracle(args.rho, grid=args.grid)
    result = {
        "rho": args.rho,
        "ceiling": value,
        "oracle_value": probe.value,
        "oracle_t_star": probe.t_star,
        "note": (
            "exact for the Pearson correlation of standardized scores; "
            "approximate when rho is a rank correlation"
        ),
    }
    note = f"ceiling({args.rho}) = {value:.4f}"
    return {}, result, note


def cmd_select(args) -> tuple[dict, dict, str]:
    m, steps = _load_preprocessed(args)
    res = baseline_select(m, args.k, args.method, seed=args.seed)
    result = res.to_dict()
    result["preprocessing"] = steps
    note = (
        f"{args.method} selected {len(res.selected)} tasks; final ED "
        f"{res.ed_trajectory[-1]:.3f}, tau vs full {res.tau_vs_full:.3f}"
    )
    return {"matrix": _digest(args.matrix)}, result, note


def cmd_compress(args) -> tuple[dict, dict, str]:
    m, steps = _load_preprocessed(args)
    curve = compression_curve(
        m, tau_target=args.tau_target, trials=args.trials, seed=args.seed
    )
    result = {
        "tau_target": curve.tau_target,
        "fraction_needed": curve.fraction_needed,
        "reached": curve.reached,
        "curve": curve.curve,
        "preprocessing": steps,
    }
    if args.csv:
        grid = np.array(curve.curve)
        _write_csv_grid(args.csv, "fraction", grid[:, 0], ["mean_tau"], grid[:, 1:])
    note = (
        f"fraction needed for tau >= {curve.tau_target}: "
        f"{curve.fraction_needed if curve.reached else 'unreached'}"
    )
    return {"matrix": _digest(args.matrix)}, result, note


def cmd_saturate(args) -> tuple[dict, dict, str]:
    n, ed = _read_series_csv(args.points, trend=False)
    fit = saturation_fit(np.column_stack([n, ed]))
    result = {**asdict(fit), "points": int(n.size)}
    note = f"ED_inf {fit.ed_inf:.2f}, half-saturation at n {fit.n_half:.1f}"
    return {"points": _digest(args.points)}, result, note


def cmd_trend(args) -> tuple[dict, dict, str]:
    x, ed = _read_series_csv(args.series, trend=True)
    mk = mann_kendall(ed)
    tid = temporal_information_density(EdSeries(x=tuple(x), ed=tuple(ed)))
    result = {**asdict(mk), "tid_slope": tid, "points": int(x.size)}
    note = f"Mann-Kendall tau {mk.tau:.3f} (p {mk.p:.3g}), TID slope {tid:.5f}"
    return {"series": _digest(args.series)}, result, note


def cmd_synth(args) -> tuple[dict, dict, str]:
    try:
        spec = IrtSpec(
            k=args.k,
            tasks=args.tasks,
            models=args.models,
            discrimination_scale=args.scale,
            difficulty_spread=args.difficulty_spread,
            loading_orientation=args.orientation,
            seed=args.seed,
        )
    except ValueError as exc:
        raise MatrixValidationError(str(exc)) from exc
    m = gen_irt_matrix(spec)
    save_matrix(m, args.out_matrix)
    result = asdict(spec)
    del result["seed"]
    result["written"] = args.out_matrix
    result["output_digest"] = _digest(args.out_matrix)["sha256"]
    note = f"wrote {spec.tasks}x{spec.models} k={spec.k} matrix to {args.out_matrix}"
    return {}, result, note


def cmd_suite(args) -> tuple[dict, dict, str]:
    s = load_suite(args.suite)
    ed = suite_ed(s)
    loo = leave_one_out(s)
    result = {
        "benchmarks": s.benchmark_ids,
        "models": s.n_models,
        "ed": ed,
        "information_density": information_density(ed, s.n_benchmarks),
        "leave_one_out": {b: asdict(rec) for b, rec in loo.items()},
    }
    if args.samples > 0:
        frag = dirichlet_fragility(s, alpha=args.alpha, samples=args.samples, seed=args.seed)
        result["fragility"] = {
            "alpha": frag.alpha,
            "samples": frag.samples,
            "champion_change_rate": frag.champion_change_rate,
            "distinct_champions": frag.distinct_champions,
            "equal_weight_champion": frag.equal_weight_champion,
        }
    note = f"suite ED {ed:.3f} over {s.n_benchmarks} benchmarks ({s.n_models} models)"
    return {"suite": _digest(args.suite)}, result, note


def _workflow_step1(s, thresholds):
    c = pairwise_correlation(s.benchmark_table(), ids=s.benchmark_ids, method="spearman")
    flags = redundancy_flags(
        c,
        hi=thresholds["redundant"],
        vet=thresholds["vet"],
        comp=thresholds["complementary"],
    )
    return {
        "status": "ok",
        "redundant_pairs": flags.redundant,
        "vet_fail_pairs": flags.vet_fail,
        "complementary_pairs": flags.complementary,
    }, f"{len(flags.redundant)} redundant pair(s)"


def _workflow_step2(s, thresholds):
    ed = suite_ed(s)
    idv = information_density(ed, s.n_benchmarks)
    verdict = (
        "effectively one-dimensional; adding benchmarks is the priority"
        if ed < thresholds["ed_floor"]
        else "multi-dimensional"
    )
    return {"status": "ok", "ed": ed, "information_density": idv, "verdict": verdict}, verdict


def _workflow_step3(series_path, thresholds):
    _, ed = _read_series_csv(series_path, trend=True)
    mk = mann_kendall(ed)
    declining = mk.tau < 0.0 and mk.p < thresholds["trend_alpha"]
    verdict = (
        "sustained decline: population may be homogenizing"
        if declining
        else "no significant decline"
    )
    return {
        "status": "ok",
        "tau": mk.tau,
        "p": mk.p,
        "declining": declining,
        "verdict": verdict,
    }, verdict


def _workflow_step4(s, candidates, thresholds):
    shared = [m for m in candidates.model_ids if m in s._model_pos]
    if len(shared) < 3:
        raise MatrixValidationError(
            "candidates share fewer than three models with the suite"
        )
    cand_rows = candidates.subset_models(shared).benchmark_table()
    suite_rows = s.subset_models(shared).benchmark_table()
    k = len(cand_rows)
    # Spearman of every candidate against every suite benchmark; a flat row's
    # entries are NaN and never count as the maximum.
    cross = pairwise_correlation(
        np.vstack([cand_rows, suite_rows]), method="spearman"
    ).values[:k, k:]
    per_candidate = {}
    for name, rhos in zip(candidates.benchmark_ids, cross):
        max_bench = max_rho = None
        if not np.isnan(rhos).all():
            best = int(np.nanargmax(rhos))
            max_bench, max_rho = s.benchmark_ids[best], float(rhos[best])
        per_candidate[name] = {
            "max_rho": max_rho,
            "against": max_bench,
            "passes_vet": bool(max_rho is not None and max_rho < thresholds["vet"]),
            "outright_redundant": bool(
                max_rho is not None and max_rho > thresholds["redundant"]
            ),
        }
    return {"status": "ok", "shared_models": len(shared), "candidates": per_candidate}, "ok"


def _skipped(reason: str) -> tuple[dict, str]:
    """A workflow step that did not run, and its note."""
    return {"status": "skipped", "reason": reason}, f"skipped ({reason})"


def cmd_workflow(args) -> tuple[dict, dict, str]:
    thresholds = {
        "redundant": args.redundant,
        "vet": args.vet,
        "complementary": args.complementary,
        "ed_floor": args.ed_floor,
        "trend_alpha": args.trend_alpha,
    }
    inputs = {}
    s = None
    if args.suite:
        inputs["suite"] = _digest(args.suite)
        s = load_suite(args.suite)
    if s is not None:
        step1 = _workflow_step1(s, thresholds)
        step2 = _workflow_step2(s, thresholds)
    else:
        step1 = step2 = _skipped("no suite provided")
    if args.ed_series:
        inputs["ed_series"] = _digest(args.ed_series)
        step3 = _workflow_step3(args.ed_series, thresholds)
    else:
        step3 = _skipped("no ED series provided")
    if args.candidates and s is not None:
        inputs["candidates"] = _digest(args.candidates)
        step4 = _workflow_step4(
            s, load_suite(args.candidates, min_benchmarks=1), thresholds
        )
    else:
        step4 = _skipped("no candidates provided")
    result = {
        "thresholds": thresholds,
        "step1_redundancy": step1[0],
        "step2_suite_ed": step2[0],
        "step3_trend": step3[0],
        "step4_vet": step4[0],
    }
    names = ("1 redundancy", "2 suite ED", "3 trend", "4 vetting")
    notes = (f"step {name}: {step[1]}" for name, step in zip(names, (step1, step2, step3, step4)))
    return inputs, result, "\n".join(notes)


def _at_least(low: int):
    """argparse type: an integer count no smaller than ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectradiag",
        description="Spectral redundancy diagnostics for benchmark score matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="also write the JSON report to this file")

    def seeded(p):
        p.add_argument("--seed", type=int, default=0)
        common(p)

    def matrix_args(p):
        p.add_argument("--matrix", required=True, help="score matrix file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--binarize-threshold", type=float, default=0.5)
        p.add_argument(
            "--no-binarize",
            action="store_true",
            help="analyze continuous scores directly",
        )

    p = sub.add_parser("ed", help="effective dimensionality report")
    matrix_args(p)
    p.add_argument("--centering", choices=CENTERING_SCHEMES, default="task")
    p.add_argument("--bootstrap-iters", type=_at_least(0), default=1000)
    seeded(p)
    p.set_defaults(func=cmd_ed)

    p = sub.add_parser("corr", help="pairwise benchmark correlations")
    p.add_argument("--suite", required=True)
    p.add_argument(
        "--method", choices=("pearson", "spearman", "kendall"), default="spearman"
    )
    p.add_argument("--redundant", type=float, default=0.9)
    p.add_argument("--complementary", type=float, default=-0.3)
    p.add_argument("--csv", help="write the square correlation CSV here")
    common(p)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("ceiling", help="two-benchmark composite correlation ceiling")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--grid", type=_at_least(1), default=10_001)
    common(p)
    p.set_defaults(func=cmd_ceiling)

    p = sub.add_parser("workflow", help="four-step maintainer diagnostic")
    p.add_argument("--suite")
    p.add_argument("--ed-series", help="CSV of x,ed points for the trend step")
    p.add_argument("--candidates", help="suite-layout CSV of candidate benchmarks")
    p.add_argument("--redundant", type=float, default=0.9)
    p.add_argument("--vet", type=float, default=0.7)
    p.add_argument("--complementary", type=float, default=-0.3)
    p.add_argument("--ed-floor", type=float, default=2.0)
    p.add_argument("--trend-alpha", type=float, default=0.05)
    common(p)
    p.set_defaults(func=cmd_workflow)

    p = sub.add_parser("select", help="task selection")
    matrix_args(p)
    p.add_argument("--method", choices=SELECTION_METHODS, default="ed_greedy")
    p.add_argument("--k", type=_at_least(1), required=True)
    seeded(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compress", help="random-subset compression curve")
    matrix_args(p)
    p.add_argument("--tau-target", type=float, default=0.95)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--csv", help="write fraction,mean_tau plot data here")
    seeded(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("saturate", help="fit the hyperbolic saturation model")
    p.add_argument("--points", required=True, help="CSV of n,ed points")
    common(p)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("trend", help="Mann-Kendall trend on an ED series")
    p.add_argument("--series", required=True, help="CSV of x,ed points")
    common(p)
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("synth", help="generate a synthetic 2PL matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tasks", type=int, default=500)
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--difficulty-spread", type=float, default=1.0)
    p.add_argument("--orientation", choices=LOADING_ORIENTATIONS, default="sphere")
    p.add_argument("--out-matrix", required=True, help="CSV path for the matrix")
    seeded(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("suite", help="suite-level ED, density, leave-one-out")
    p.add_argument("--suite", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument(
        "--samples", type=_at_least(0), default=0, help="Dirichlet fragility samples (0 = skip)"
    )
    seeded(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, result, note = args.func(args)
        report = {
            "command": args.command,
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "inputs": inputs,
            "result": result,
        }
        text = json.dumps(_json_safe(report), indent=2, allow_nan=False) + "\n"
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (MatrixValidationError, OSError, json.JSONDecodeError) as exc:
        _note(f"input error: {exc}")
        return 2
    except ValueError as exc:
        _note(f"analysis rejected: {exc}")
        return 1
    _note(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
