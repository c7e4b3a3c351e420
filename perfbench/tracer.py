"""Outside-in span tracer for the layers of ``sobolev_banach``.

The tracer wraps the public functions of each package module, plus
``SampleBlueprint.realize``, wherever they are bound: in the defining module
and in every package namespace that imported them with ``from ... import``.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Each span records its name, start, end, the span that caused it, whether it
raised, and work counts computed from its call arguments.  Spans nest on a
stack per thread.  A span that opens on a worker thread with an empty stack
is caused by the innermost span open on the installing thread, which is how
``cli.execute_suite`` comes to own the entries its thread pool runs.  A
recursive call of the span's own function opens no new span.

``layer_metrics`` turns the spans of one run into the per-layer metrics.  A
span's self time is its duration minus the part of it covered by its child
spans; children on other threads may overlap, so the covered part is the
union of their intervals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import threading
import time
from pathlib import Path

PACKAGE = "sobolev_banach"

#: The layers, by module, in the order the metrics are listed.
MODULES = (
    "cli",
    "suite",
    "calculus",
    "theorems",
    "counterexamples",
    "gridfn",
    "banach",
    "_kernels",
    "reports",
)

#: Public functions left unwrapped.  The ``*_np`` kernels are the numpy
#: bodies of the dispatchers of the same name, so their time stays in the
#: dispatcher's self time.
UNWRAPPED = {
    "_kernels": ("holder_max_np", "greedy_radii_np", "sup_pairing_np", "lr_pairing_np"),
}

#: Methods wrapped on their class: module -> ((class, method), ...).
METHODS = {"suite": (("SampleBlueprint", "realize"),)}


def layer_of(module: str) -> str:
    """Metric prefix of a module (``_kernels`` -> ``kernels``)."""
    return module.lstrip("_")


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is None:
        import numpy as np

        size = np.size(x)
    return int(size)


def _nodes(u) -> int:
    return math.prod(u.grid.n)


def _report_bytes(outdir) -> int:
    """Bytes of the reports a run wrote; the wall-clock sidecar is left out
    so the count repeats exactly."""
    return sum(
        p.stat().st_size
        for p in Path(outdir).iterdir()
        if p.is_file() and p.name != "run_metadata.json"
    )


#: Work counts per span, computed from the bound call arguments.
COUNTERS = {
    "suite.SampleBlueprint.realize": lambda a: {"nodes": a["n"] ** a["self"].d},
    "gridfn.finite_difference": lambda a: {"nodes": _nodes(a["u"])},
    "banach.norm": lambda a: {"elements": _size(a["x"])},
    "banach.one_sided_norm_derivative_batch": lambda a: {
        "rows": _size(a["X"]) // a["space"].dim
    },
    "kernels.holder_max": lambda a: {"pairs": len(a["V"]) * (len(a["V"]) - 1) // 2},
    "kernels.greedy_radii": lambda a: {"elements": _size(a["D"])},
    "kernels.sup_pairing": lambda a: {"rows": len(a["X"])},
    "kernels.lr_pairing": lambda a: {"rows": len(a["X"])},
    "cli.write_outputs": lambda a: {"bytes": _report_bytes(a["outdir"])},
}

#: Spans tagged with their first argument (the catalog entry name).
TAGGED = {"suite.run_entry": "name"}


class _Arguments:
    """Call arguments by parameter name, without the cost of binding."""

    def __init__(self, names, args, kwargs):
        self.names, self.args, self.kwargs = names, args, kwargs

    def __getitem__(self, name):
        if name in self.kwargs:
            return self.kwargs[name]
        return self.args[self.names.index(name)]


class Span:
    __slots__ = ("name", "parent", "start", "end", "raised", "counts", "tag")

    def __init__(self, name, parent, start=0.0, end=0.0, raised=False, counts=None, tag=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.raised = raised
        self.counts = counts
        self.tag = tag

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span called ``name``."""
        counter = COUNTERS.get(name)
        tag_arg = TAGGED.get(name)
        names = list(inspect.signature(fn).parameters) if counter or tag_arg else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            with tracer._lock:
                if stack:
                    parent = stack[-1]
                elif stack is not tracer._main_stack and tracer._main_stack:
                    parent = tracer._main_stack[-1]
                else:
                    parent = None
                span = Span(name, parent)
                tracer.spans.append(span)
                stack.append(len(tracer.spans) - 1)
            span.start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = tracer.clock()
                stack.pop()
                if names is not None:
                    tracer._describe(span, names, args, kwargs, counter, tag_arg)

        return traced

    @staticmethod
    def _describe(span, names, args, kwargs, counter, tag_arg):
        # A signature that no longer matches leaves the count absent rather
        # than breaking the traced program.
        try:
            bound = _Arguments(names, args, kwargs)
            if counter is not None:
                span.counts = counter(bound)
            if tag_arg is not None:
                span.tag = bound[tag_arg]
        except (KeyError, IndexError, AttributeError, TypeError, OSError):
            pass

    # -- installation -----------------------------------------------------------

    def targets(self) -> dict[str, object]:
        """Qualified span name -> original function, for every traced name
        that exists in the imported package."""
        found = {}
        for module in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                continue
            skip = UNWRAPPED.get(module, ())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    found[f"{layer_of(module)}.{attr}"] = obj
            for cls_name, meth in METHODS.get(module, ()):
                fn = getattr(getattr(mod, cls_name, None), meth, None)
                if inspect.isfunction(fn):
                    found[f"{layer_of(module)}.{cls_name}.{meth}"] = fn
        return found

    def install(self) -> None:
        """Wrap every target in each package namespace that binds it."""
        wrapped = {fn: self.wrap(fn, name) for name, fn in self.targets().items()}
        namespaces = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in namespaces:
            for owner in [mod] + [
                c for c in vars(mod).values()
                if inspect.isclass(c) and c.__module__ == mod.__name__
            ]:
                for attr, obj in list(vars(owner).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._restore.append((owner, attr, obj))
                        setattr(owner, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def drain(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


# -- metrics ----------------------------------------------------------------------

#: Per-function metrics: span name -> statistics reported for it.
FUNCTION_METRICS = {
    "cli.load_config": ("self_s",),
    "cli.write_outputs": ("self_s", "bytes"),
    "suite.SampleBlueprint.realize": ("calls", "self_s", "nodes"),
    "calculus.norm_derivative_field": ("calls", "self_s"),
    "calculus.dq_criterion": ("calls", "self_s"),
    "calculus.holder_beta": ("calls", "self_s"),
    "calculus.compose_lipschitz": ("calls", "self_s"),
    "theorems.covering_counts": ("calls", "self_s"),
    "theorems.tensor_extend": ("calls", "self_s"),
    "theorems.w0_membership": ("calls", "self_s"),
    "counterexamples.indicator_path_witness": ("self_s",),
    "counterexamples.c0_sine_witness": ("self_s",),
    "counterexamples.ck_pospart_witness": ("self_s",),
    "gridfn.finite_difference": ("calls", "self_s", "nodes"),
    "gridfn.shift_difference_norm": ("calls", "self_s"),
    "gridfn.bochner_norm": ("calls", "self_s"),
    "gridfn.mollify": ("calls", "self_s"),
    "banach.norm": ("calls", "self_s", "elements"),
    "banach.one_sided_norm_derivative_batch": ("calls", "self_s", "rows"),
    "kernels.holder_max": ("calls", "self_s", "pairs"),
    "kernels.greedy_radii": ("calls", "self_s", "elements"),
    "kernels.sup_pairing": ("calls", "self_s", "rows"),
    "kernels.lr_pairing": ("calls", "self_s", "rows"),
    "reports.to_jsonable": ("self_s",),
    "reports.fit_loglog": ("calls",),
}

SETUP_PACKAGES = ("numpy", "scipy", "jsonschema", "sobolev_banach")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_share") else "count"


def metric_names(traced: set[str], entries) -> list[str]:
    """Names of the per-layer metrics, for the traced functions and the
    catalog entries that exist."""
    names = [f"setup.{p}_s" for p in SETUP_PACKAGES]
    for fn, stats in FUNCTION_METRICS.items():
        if fn in traced:
            names += [f"{fn}.{s}" for s in stats]
    if "cli.execute_suite" in traced:
        names.append("cli.execute_suite.wall_s")
    if "suite.run_entry" in traced:
        names += [f"suite.entry.{e}.wall_s" for e in entries]
        if "cli.execute_suite" in traced:
            names += ["suite.critical_path_share", "suite.entry_wait_s"]
    layers = {name.split(".", 1)[0] for name in traced}
    for module in MODULES:
        if layer_of(module) in layers:
            names += [f"{layer_of(module)}.self_s", f"{layer_of(module)}.raised"]
    names.append("trace.overhead_s")
    return names


def combine(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of several runs: the median of each time and, as
    counts repeat exactly, an observed value of each count."""
    return {
        k: statistics.median(r[k] for r in runs)
        if metric_unit(k) != "count"
        else statistics.median_low(r[k] for r in runs)
        for k in runs[0]
    }


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span], traced: set[str], entries) -> dict[str, float]:
    """Per-layer metrics of one traced run (``setup.*`` and
    ``trace.overhead_s`` are measured elsewhere and left out)."""
    selfs = self_times(spans)
    by_name: dict[str, dict[str, float]] = {}
    by_layer = {layer_of(m): {"self_s": 0.0, "raised": 0} for m in MODULES}
    for s, st in zip(spans, selfs):
        agg = by_name.setdefault(s.name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += st
        agg["wall_s"] += s.end - s.start
        for k, v in (s.counts or {}).items():
            agg[k] = agg.get(k, 0) + v
        layer = by_layer.setdefault(s.layer, {"self_s": 0.0, "raised": 0})
        layer["self_s"] += st
        layer["raised"] += int(s.raised)

    wanted = set(metric_names(traced, entries))
    out: dict[str, float] = {}
    for fn, stats in FUNCTION_METRICS.items():
        agg = by_name.get(fn, {})
        for stat in stats:
            out[f"{fn}.{stat}"] = agg.get(stat, 0)
    out["cli.execute_suite.wall_s"] = by_name.get("cli.execute_suite", {}).get("wall_s", 0.0)

    entry_spans = [s for s in spans if s.name == "suite.run_entry"]
    for e in entries:
        out[f"suite.entry.{e}.wall_s"] = sum(s.end - s.start for s in entry_spans if s.tag == e)
    suite_runs = {i for i, s in enumerate(spans) if s.name == "cli.execute_suite"}
    longest = max((s.end - s.start for s in entry_spans), default=0.0)
    suite_wall = out["cli.execute_suite.wall_s"]
    out["suite.critical_path_share"] = longest / suite_wall if suite_wall > 0 else 0.0
    out["suite.entry_wait_s"] = sum(
        s.start - spans[s.parent].start for s in entry_spans if s.parent in suite_runs
    )
    for layer, agg in by_layer.items():
        out[f"{layer}.self_s"] = agg["self_s"]
        out[f"{layer}.raised"] = agg["raised"]
    return {k: v for k, v in out.items() if k in wanted}
