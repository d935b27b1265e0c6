"""The layers the traced run records, and the per-layer metrics.

Each metric's comment names the end-to-end metric and workload it should
move; the benchmark reports every metric on every workload, so a layer a
workload does not use reads 0.
"""

from __future__ import annotations

from tracing import Span, Tracer, layer_times, union_length

LAYERS = (
    "cli",
    "matrix_io",
    "spectral",
    "nulls",
    "association",
    "selection",
    "composite",
    "temporal",
    "synthetic",
)

MB = 1e6


def make_tracer() -> Tracer:
    return Tracer("spectradiag", LAYERS)


class _Calls:
    """Time, call count and summed counters of the spans with one name."""

    def __init__(self, spans: list[Span], *names: str):
        chosen = [s for s in spans if s.name in names]
        self.s = union_length((s.start, s.end) for s in chosen)
        self.calls = len(chosen)
        self.attrs: dict[str, float] = {}
        for s in chosen:
            for key, value in s.attrs.items():
                self.attrs[key] = self.attrs.get(key, 0) + value
        self.peak_bytes = max((s.attrs.get("peak_bytes", 0) for s in chosen), default=0)

    def rate(self, key: str) -> float:
        return self.attrs.get(key, 0) / self.s if self.s > 0.0 else 0.0

    def frac(self, num: str, den: str) -> float:
        d = self.attrs.get(den, 0)
        return self.attrs.get(num, 0) / d if d else 0.0

    def us_per_call(self) -> float:
        return 1e6 * self.s / self.calls if self.calls else 0.0


def per_layer_metrics(
    job_spans: list[Span],
    setup_spans: list[Span],
    memory_spans: list[Span],
    traced_job_s: float,
    import_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric that one traced repetition gives, as
    ``name -> (value, unit)``. ``memory_spans`` come from re-running, with
    tracemalloc on, the ops that call ``selection.ed_greedy``.
    ``process.cpu_util`` and ``trace.overhead_frac`` need untraced
    repetitions and are added by the caller."""
    c = lambda *names: _Calls(job_spans, *names)  # noqa: E731
    out: dict[str, tuple[float, str]] = {}

    # Layer totals: inclusive time and self time (span minus child spans).
    # cli.self_s -> job_s on ed_report and suite_temporal.
    layers = layer_times(job_spans)
    for layer in LAYERS:
        rec = layers.get(layer, {"incl_s": 0.0, "self_s": 0.0})
        out[f"{layer}.incl_s"] = (rec["incl_s"], "s")
        out[f"{layer}.self_s"] = (rec["self_s"], "s")
    roots = [(s.start, s.end) for s in job_spans if s.parent < 0]
    out["trace.coverage_frac"] = (
        union_length(roots) / traced_job_s if traced_job_s > 0 else 0.0,
        "frac",
    )

    # -> job_s on ed_report.
    load = c("matrix_io.load_matrix")
    out["matrix_io.load_matrix.s"] = (load.s, "s")
    out["matrix_io.load_matrix.cells_per_s"] = (load.rate("cells"), "1/s")
    out["matrix_io.preprocess.s"] = (c("matrix_io.binarize", "matrix_io.impute_missing").s, "s")
    # -> job_s on redundancy (compression_curve) and ed_report.
    dense = c("matrix_io.dense_values")
    out["matrix_io.dense_values.calls"] = (dense.calls, "count")
    out["matrix_io.dense_values.mb_copied"] = (dense.attrs.get("bytes", 0) / MB, "MB")
    # -> job_s on suite_temporal (many small calls) and ed_report (few large).
    ed = c("spectral.ed_of_matrix")
    out["spectral.ed_of_matrix.calls"] = (ed.calls, "count")
    out["spectral.ed_of_matrix.s"] = (ed.s, "s")
    out["spectral.ed_of_matrix.us_per_call"] = (ed.us_per_call(), "us")
    out["spectral.singular_spectrum.s"] = (c("spectral.singular_spectrum").s, "s")
    # -> job_s on ed_report; 0 elsewhere.
    boot = c("nulls.bootstrap_ed_ci")
    out["nulls.bootstrap_ed_ci.s"] = (boot.s, "s")
    out["nulls.bootstrap_ed_ci.replicates_per_s"] = (boot.rate("replicates"), "1/s")
    out["nulls.permutation_null.replicates_per_s"] = (
        c("nulls.permutation_null").rate("replicates"),
        "1/s",
    )
    out["nulls.alternative_estimators.s"] = (c("nulls.alternative_estimators").s, "s")
    # -> job_s and peak_rss_mb on redundancy.
    greedy = c("selection.ed_greedy")
    out["selection.ed_greedy.s"] = (greedy.s, "s")
    peak = _Calls(memory_spans, "selection.ed_greedy").peak_bytes
    out["selection.ed_greedy.peak_mb"] = (peak / MB, "MB")
    out["selection.k_medoids.s"] = (c("selection.k_medoids").s, "s")
    out["selection.compression_curve.s"] = (c("selection.compression_curve").s, "s")
    out["selection.ranking_fidelity.us_per_call"] = (
        c("selection.ranking_fidelity").us_per_call(),
        "us",
    )
    probe = c("selection.submodularity_probe")
    out["selection.submodularity_probe.s"] = (probe.s, "s")
    out["selection.submodularity_probe.valid_frac"] = (probe.frac("valid", "samples"), "frac")
    tetra = c("association.tetrachoric_matrix")
    out["association.tetrachoric_matrix.s"] = (tetra.s, "s")
    out["association.tetrachoric_matrix.pairs_per_s"] = (tetra.rate("pairs"), "1/s")
    out["association.tetrachoric_matrix.clamped_frac"] = (tetra.frac("clamped", "pairs"), "frac")
    out["association.hierarchical_cluster.s"] = (c("association.hierarchical_cluster").s, "s")
    # -> job_s on redundancy and suite_temporal.
    out["association.pairwise_correlation.s"] = (c("association.pairwise_correlation").s, "s")
    # -> job_s on suite_temporal.
    out["composite.dirichlet_fragility.samples_per_s"] = (
        c("composite.dirichlet_fragility").rate("samples"),
        "1/s",
    )
    out["composite.leave_one_out.s"] = (c("composite.leave_one_out").s, "s")
    out["temporal.cohort_bootstrap_compare.iterations_per_s"] = (
        c("temporal.cohort_bootstrap_compare").rate("iterations"),
        "1/s",
    )
    out["temporal.sliding_window_ed.s"] = (c("temporal.sliding_window_ed").s, "s")
    out["temporal.ed_vs_model_count.s"] = (c("temporal.ed_vs_model_count").s, "s")
    # -> setup_s on every workload.
    out["synthetic.gen_irt_matrix.s"] = (_Calls(setup_spans, "synthetic.gen_irt_matrix").s, "s")
    out["matrix_io.save_matrix.s"] = (_Calls(setup_spans, "matrix_io.save_matrix").s, "s")
    out["process.import_s"] = (import_s, "s")
    return out
