"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from sobolev_banach import _kernels, calculus, suite  # noqa: E402


class StepClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer(clock=StepClock([0.0, 1.0, 3.0, 4.0, 6.5, 10.0]))
    inner = t.wrap(lambda: None, "gridfn.inner")

    def body():
        inner()
        inner()

    t.wrap(body, "calculus.outer")()
    spans = t.drain()
    assert [s.name for s in spans] == ["calculus.outer", "gridfn.inner", "gridfn.inner"]
    assert tracer.self_times(spans) == [10.0 - 2.0 - 2.5, 2.0, 2.5]
    m = tracer.layer_metrics(spans, {"calculus.outer", "gridfn.inner"}, [])
    assert m["calculus.self_s"] == 5.5
    assert m["gridfn.self_s"] == 4.5


def test_overlapping_children_count_once():
    spans = [
        tracer.Span("cli.execute_suite", None, 0.0, 10.0),
        tracer.Span("suite.run_entry", 0, 1.0, 5.0, tag="a"),
        tracer.Span("suite.run_entry", 0, 3.0, 7.0, tag="b"),
    ]
    assert tracer.self_times(spans)[0] == 4.0
    m = tracer.layer_metrics(spans, {"cli.execute_suite", "suite.run_entry"}, ["a", "b"])
    assert m["suite.entry.a.wall_s"] == 4.0
    assert m["suite.critical_path_share"] == 0.4
    assert m["suite.entry_wait_s"] == 4.0


def test_thread_stacks_do_not_mix():
    t = tracer.Tracer()
    both_open = threading.Barrier(2, timeout=10)
    inner = t.wrap(lambda: None, "gridfn.inner")

    def outer():
        both_open.wait()
        inner()

    workers = [threading.Thread(target=t.wrap(outer, "calculus.outer")) for _ in range(2)]

    def pool():
        for w in workers:
            w.start()
        for w in workers:
            w.join(10)

    t.wrap(pool, "cli.execute_suite")()
    assert not any(w.is_alive() for w in workers)
    spans = t.drain()
    outers = [i for i, s in enumerate(spans) if s.name == "calculus.outer"]
    inners = [s for s in spans if s.name == "gridfn.inner"]
    assert sorted(s.parent for s in inners) == outers
    assert all(spans[i].parent == 0 for i in outers)


def test_recursion_opens_one_span():
    t = tracer.Tracer()

    def fact(k):
        return 1 if k == 0 else k * wrapped(k - 1)

    wrapped = t.wrap(fact, "reports.fact")
    assert wrapped(5) == 120
    assert len(t.drain()) == 1


@pytest.fixture
def installed():
    t = tracer.Tracer()
    traced = set(t.targets())
    t.install()
    yield t, traced
    t.uninstall()


def test_install_wraps_every_binding_and_uninstall_restores():
    original = calculus.norm_derivative_field
    t = tracer.Tracer()
    t.install()
    try:
        assert suite.norm_derivative_field is calculus.norm_derivative_field
        assert calculus.norm_derivative_field is not original
        assert suite.SampleBlueprint.realize.__wrapped__ is not None
    finally:
        t.uninstall()
    assert calculus.norm_derivative_field is original
    assert suite.norm_derivative_field is original
    assert not hasattr(suite.SampleBlueprint.realize, "__wrapped__")


def _counts(installed):
    t, traced = installed
    suite.run_entry("norm_gradient_bound", 7, 0)
    m = tracer.layer_metrics(t.drain(), traced, list(suite.CATALOG))
    return {k: v for k, v in m.items() if not k.endswith(("_s", "_share"))}


def test_work_counts_repeat_exactly(installed):
    first = _counts(installed)
    assert first == _counts(installed)
    # 30 corpus members: 24 one-dimensional at n=128, 6 two-dimensional at 64.
    assert first["suite.SampleBlueprint.realize.calls"] == 30
    assert first["suite.SampleBlueprint.realize.nodes"] == 24 * 128 + 6 * 64**2
    assert first["banach.norm.calls"] > 0


def test_missing_function_leaves_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(_kernels, "holder_max")
    t = tracer.Tracer()
    traced = set(t.targets())
    assert "kernels.holder_max" not in traced
    t.install()
    t.uninstall()
    names = tracer.metric_names(traced, list(suite.CATALOG))
    assert "kernels.holder_max.pairs" not in names
    assert "kernels.greedy_radii.calls" in names


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    t = tracer.Tracer()
    want = tracer.metric_names(set(t.targets()), list(suite.CATALOG))
    assert [m["name"] for m in bench["per_layer"]] == want
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in bench["per_layer"])


def test_corrupted_summary_fails_every_entry():
    reference = b"entry,metric,value,threshold,pass\na,x,1.0,2.0,true\nb,y,1.0,2.0,true\n"
    entries = run.summary_entries(reference)
    assert entries == ["a", "b"]
    assert run.judge(0, reference, reference, entries) == 0
    corrupted = reference.replace(b"1.0,2.0,true\nb", b"1.5,2.0,true\nb")
    assert run.judge(0, corrupted, reference, entries) == 2
    assert run.judge(1, reference, reference, entries) == 2
    assert run.judge(0, None, reference, entries) == 2
    failing = reference.replace(b"b,y,1.0,2.0,true", b"b,y,3.0,2.0,false")
    assert run.judge(0, failing, failing, entries) == 1


def test_import_breakdown_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |         50 |     pickle",
        "import time:       200 |        250 |   numpy.core",
        "import time:       300 |        550 | numpy",
        "import time:        70 |         70 |   scipy.linalg",
        "import time:        10 |         10 |   json",
        "import time:        20 |        100 | sobolev_banach",
    ])
    got = run.import_breakdown(text)
    assert got == pytest.approx({
        "numpy": 550e-6,
        "scipy": 70e-6,
        "jsonschema": 0.0,
        "sobolev_banach": 30e-6,
    })


def test_library_reference_rejects_a_wrong_result():
    import library

    inputs = library.Inputs(3)
    bp = next(b for b in inputs.blueprints if b.d == 1)
    u = bp.realize(library.N_1D)
    assert library.check_call(u, ("realize", bp))
    bad = u.like(u.values.copy())
    bad.values[100, 0] += 1e-6
    assert not library.check_call(bad, ("realize", bp))
    seed = inputs.holder_seeds[0]
    beta = calculus.holder_beta(u, library.HOLDER_ALPHA, max_nodes=library.HOLDER_NODES, seed=seed)
    assert library.check_call(beta, ("holder_beta", {0: u}, 0, seed))
    assert not library.check_call(beta * (1 + 1e-9), ("holder_beta", {0: u}, 0, seed))


def test_combine_keeps_counts_exact():
    runs = [{"banach.norm.calls": 4, "banach.norm.self_s": 1.0},
            {"banach.norm.calls": 4, "banach.norm.self_s": 2.0}]
    assert tracer.combine(runs) == {"banach.norm.calls": 4, "banach.norm.self_s": 1.5}
