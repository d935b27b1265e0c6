"""Spans recorded around calls into spectradiag's modules.

The tracer replaces every public function of the listed modules, plus the
methods in ``METHODS``, with a wrapper that records one span per call.
It also rebinds the names other spectradiag modules imported (for example
``nulls.ed_of_matrix``), so calls made inside the package get spans too.
Spans stay in memory; ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from oracles import RHO_CLAMP

# Methods wrapped as ``module.method``, by module.
METHODS = {"matrix_io": ("ScoreMatrix.dense_values",)}


def _tetrachoric_counts(arguments, corr) -> dict:
    n = corr.shape[0]
    off = np.abs(corr[np.triu_indices(n, 1)])
    return {"pairs": off.size, "clamped": int(np.count_nonzero(off == RHO_CLAMP))}


# Span name -> ``f(arguments, result) -> dict`` whose entries are stored on the
# span; ``arguments`` is the bound-argument dict.
COUNTERS = {
    "matrix_io.load_matrix": lambda a, m: {"cells": m.values.size},
    "matrix_io.dense_values": lambda a, v: {"bytes": v.nbytes},
    "nulls.bootstrap_ed_ci": lambda a, r: {"replicates": a["iterations"]},
    "nulls.permutation_null": lambda a, r: {"replicates": r.replicates},
    "association.tetrachoric_matrix": _tetrachoric_counts,
    "selection.submodularity_probe": lambda a, r: {
        "samples": a["samples"],
        "valid": r.valid_samples,
    },
    "composite.dirichlet_fragility": lambda a, r: {"samples": r.samples},
    "temporal.cohort_bootstrap_compare": lambda a, r: {"iterations": r.iterations},
}

# Span name -> ``f(arguments) -> str``, the name recorded instead:
# baseline_select is recorded under its method, e.g. ``selection.k_medoids``.
LABELS = {"selection.baseline_select": lambda a: f"selection.{a['method']}"}

# Spans that record the peak of traced allocations during the call as
# ``peak_bytes`` while ``Tracer.measure_memory`` is true.
PEAK_MEMORY = frozenset({"selection.ed_greedy"})


@dataclass
class Span:
    """One call: ``parent`` is the index of the enclosing span, -1 at the root."""

    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return [
        (s.end - s.start) - union_length(kids) for s, kids in zip(spans, children)
    ]


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``incl_s`` (time inside any of its spans) and ``self_s``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    by_layer: dict[str, list[tuple[float, float]]] = {}
    for s, t in zip(spans, own):
        rec = out.setdefault(s.layer, {"incl_s": 0.0, "self_s": 0.0})
        rec["self_s"] += t
        by_layer.setdefault(s.layer, []).append((s.start, s.end))
    for layer, intervals in by_layer.items():
        out[layer]["incl_s"] = union_length(intervals)
    return out


class Tracer:
    """Installs span-recording wrappers over a package's public functions.

    ``modules`` are the package's modules whose ``__all__`` functions are
    wrapped, each span named ``module.function``. Spans in ``PEAK_MEMORY``
    measure memory only while ``measure_memory`` is true: tracemalloc slows
    every allocation, so timed spans should be recorded with it off.
    Wrappers record only while ``recording`` is true; otherwise they call
    straight through.
    """

    def __init__(self, package: str, modules, clock=time.perf_counter):
        self.package = package
        self.modules = tuple(modules)
        self.clock = clock
        self.spans: list[Span] = []
        self.recording = False
        self.measure_memory = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target and rebind each module-level alias of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for name in self.modules:
            mod = importlib.import_module(f"{self.package}.{name}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{name}.{attr}", fn)
            for path in METHODS.get(name, ()):
                cls_name, method = path.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, method, self._wrap(f"{name}.{method}", getattr(owner, method)))
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original object, newest patch first."""
        self.recording = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        label = LABELS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            arguments = None
            if counter is not None or label is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span_name = label(arguments) if label is not None else name
            return tracer._call(span_name, fn, args, kwargs, counter, arguments)

        return wrapper

    def _call(self, name, fn, args, kwargs, counter, arguments):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        measure = self.measure_memory and name in PEAK_MEMORY and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            if measure:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
        if counter is not None:
            span.attrs.update(counter(arguments, result))
        return result
