"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from layers import make_tracer  # noqa: E402
from tracing import Span, Tracer, layer_times, self_times, union_length  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("x.a", 0.0, 10.0, -1),
        Span("y.b", 1.0, 4.0, 0),
        Span("y.c", 2.0, 3.0, 1),
        Span("x.d", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert layer_times(spans) == {
        "x": {"incl_s": 10.0, "self_s": 7.0},
        "y": {"incl_s": 3.0, "self_s": 3.0},
    }


def test_overlapping_children_are_counted_once():
    spans = [Span("a.p", 0.0, 10.0, -1), Span("a.q", 1.0, 4.0, 0), Span("a.r", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0
    assert union_length([(0, 1), (2, 3), (2.5, 4), (10, 10)]) == 3.0


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .outer import top\n")
    (pkg / "inner.py").write_text("__all__ = ['work']\n\ndef work(n):\n    return n + 1\n")
    (pkg / "outer.py").write_text(
        "from .inner import work\n__all__ = ['top']\n\n"
        "def top(n):\n    return work(n) + work(n)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    yield fakepkg
    for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
        sys.modules.pop(name, None)


def test_wrappers_rebind_aliases_and_uninstall_restores(fakepkg):
    originals = (fakepkg.top, fakepkg.outer.top, fakepkg.outer.work, fakepkg.inner.work)
    ticks = itertools.count()
    tracer = Tracer("fakepkg", ["inner", "outer"], clock=lambda: float(next(ticks)))
    tracer.install()
    tracer.recording = True
    assert fakepkg.top(1) == 4
    tracer.recording = False
    # top [0, 5] holds work [1, 2] and work [3, 4], reached through outer's alias.
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer.top", 0.0, 5.0, -1),
        ("inner.work", 1.0, 2.0, 0),
        ("inner.work", 3.0, 4.0, 0),
    ]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    tracer.uninstall()
    assert (fakepkg.top, fakepkg.outer.top, fakepkg.outer.work, fakepkg.inner.work) == originals
    assert fakepkg.top(1) == 4 and len(tracer.spans) == 3


def _snapshot():
    import spectradiag.matrix_io

    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "spectradiag"}
    state = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    state[("ScoreMatrix", "dense_values")] = spectradiag.matrix_io.ScoreMatrix.dense_values
    return state


def test_spectradiag_tracer_sees_inner_calls_and_leaves_no_trace():
    import spectradiag as sd
    import spectradiag.cli  # noqa: F401

    m = sd.gen_irt_matrix(sd.IrtSpec(k=2, tasks=40, models=12, seed=3))
    untraced = sd.bootstrap_ed_ci(m, iterations=3, seed=1)
    before = _snapshot()
    tracer = make_tracer()
    tracer.install()
    assert sd.nulls.ed_of_matrix is not before[("spectradiag.nulls", "ed_of_matrix")]
    tracer.recording = True
    traced = sd.bootstrap_ed_ci(m, iterations=3, seed=1)
    tracer.recording = False
    tracer.uninstall()

    names = [s.name for s in tracer.spans]
    assert names[0] == "nulls.bootstrap_ed_ci"
    assert tracer.spans[0].attrs == {"replicates": 3}
    assert names.count("spectral.ed_of_matrix") == 3
    assert "matrix_io.dense_values" in names
    assert all(s.parent == 0 for s in tracer.spans if s.name == "spectral.ed_of_matrix")
    assert traced == untraced

    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    count = len(tracer.spans)
    assert sd.bootstrap_ed_ci(m, iterations=3, seed=1) == untraced
    assert len(tracer.spans) == count
