"""Command-line front end for the verification suite.

``run`` executes catalog entries from a JSON config and writes a summary
CSV plus per-entry reports; ``list-entries`` and ``describe`` expose the
catalog.  Entries run in forked worker processes, or in this process when
one worker is used.  Reports are deterministic for a fixed seed — wall-clock
and per-entry resource metadata live only in a sidecar file.
"""
from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import pickle
import resource
import select
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, suite
from .errors import ConfigError, field_errors, json_pointer
from .suite import SPEC_FIELDS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2

# Declared like an entry's params, as (default, smallest, largest); None is open.
RUN_FIELDS = {"seed": (42, 0, None), "workers": (None, 1, None)}  # default: CPUs available
BOUNDS = dict.fromkeys(["max", "min"], (0.0, None, None))  # a require bound: any number


def config_errors(cfg) -> list[str]:
    """Each way ``cfg`` breaks the config format, as ``"<JSON pointer>:
    <message>"``; numbers are checked against their declarations
    (``errors.field_errors``)."""
    errors = []

    def fields(obj, at, decls, required=(), nonempty=False) -> bool:
        errors.extend(field_errors(obj, at, decls, required, nonempty))
        return isinstance(obj, dict)  # only an object is read further

    run = {"schema_version": (1, 1, 1), "output_dir": str, "format": None, "suite": None}
    if not fields(cfg, "", run | RUN_FIELDS, ["schema_version"]):
        return errors
    if cfg.get("format", "json") not in ("json", "csv", "both"):
        errors.append(f"/format: {cfg['format']!r} is not one of 'json', 'csv', 'both'")
    if not isinstance(cfg.get("suite", []), list):
        return errors + [f"/suite: {cfg['suite']!r} is not of type 'array'"]
    if cfg.get("suite") == []:  # no entry would pass vacuously
        errors.append("/suite: [] is too short")
    spec_fields = {"name": str, "params": None, "require": None} | SPEC_FIELDS
    first = {}  # entry name -> pointer of the spec that first names it
    for i, spec in enumerate(cfg.get("suite", [])):
        at = f"/suite/{i}"
        if not fields(spec, at, spec_fields, ["name"]):
            continue
        if isinstance(name := spec.get("name"), str):
            if name in first:  # its report files would overwrite the first one's
                errors.append(f"{at}/name: {name!r} repeats {first[name]}")
            first.setdefault(name, f"{at}/name")
        # an unknown name takes any params: the run rejects it before any work
        entry = suite.CATALOG.get(name) if isinstance(name, str) else None
        fields(spec.get("params", {}), f"{at}/params", entry.params if entry else None)
        if "require" in spec and fields(spec["require"], f"{at}/require", None, nonempty=True):
            for metric, bounds in spec["require"].items():
                where = json_pointer(f"{at}/require", metric)
                if entry and metric not in [m for m, *_ in entry.rows]:
                    errors.append(f"{where}: {name} declares no row {metric!r}")
                fields(bounds, where, BOUNDS, nonempty=True)
    return errors


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # NaN and Infinity are Python's extension of JSON, not JSON
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if errors := config_errors(cfg):
        raise ConfigError("config schema violations:\n  " + "\n  ".join(errors))
    return cfg


def resolve_seed(cfg: dict, cli_seed: int | None) -> int:
    return cli_seed if cli_seed is not None else int(cfg.get("seed", RUN_FIELDS["seed"][0]))


def _apply_require(rows, require: dict):
    values = {r.metric: r.value for r in rows}
    extra = []
    for metric, bounds in require.items():
        if metric not in values:
            raise ConfigError(f"require references unknown metric {metric!r}")
        extra += [suite.compare(metric + op + key, values[metric], op, bounds[key])
                  for key, op in (("max", "<="), ("min", ">=")) if key in bounds]
    return list(rows) + extra


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``)
    through ctypes, or None where numpy carries no such library.  Loading
    it finds the copy numpy has already loaded."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            return lib
    return None


def blas_core() -> str | None:
    """The core numpy's bundled OpenBLAS runs on (such as SkylakeX), which
    its build record need not name; None where that library is absent."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()


def blas_threads() -> int | None:
    """The threads numpy's bundled OpenBLAS runs on; None where it is absent."""
    lib = _openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


def _one_blas_thread():
    """Pin a forked worker to one OpenBLAS thread (a no-op without numpy's
    bundled OpenBLAS): the workers share the cores, and the threads of
    each worker's small row sums would compete for them."""
    if (lib := _openblas()) is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def _raised(name: str, error: str) -> dict:
    """The result of entry ``name`` when it raised or its worker died: one
    ``raised`` row, no details, and the ``error``."""
    return {"entry": name, "anchor": suite.CATALOG[name].anchor, "error": error,
            "rows": [suite.Row("raised", math.nan, math.nan, False)], "details": {}}


def _run_one(spec: dict):
    """Run one spec: an entry ``name`` with its ``seed``, and its optional
    ``refine``, ``params`` and ``require``."""
    wall0, ru0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    name, seed = spec["name"], spec["seed"]
    refine = int(spec.get("refine", 0))  # 2.0 is a valid level
    params = None
    try:
        params = suite.entry_params(name, refine, spec.get("params"))
        rows, details = suite._run_checked(name, seed, params)
        result = {"entry": name, "anchor": suite.CATALOG[name].anchor,
                  "rows": _apply_require(rows, spec.get("require", {})), "details": details}
    except Exception as e:  # one entry's blow-up must not lose the others' reports
        import traceback  # only here: the parent of forked workers runs no entry

        traceback.print_exc()
        result = _raised(name, f"{type(e).__name__}: {e}")
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["usage"] = {  # measured in the process that ran the entry
        "name": name,
        "params": params,  # the sizes that ran: defaults filled, refined
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": ru.ru_utime + ru.ru_stime - ru0.ru_utime - ru0.ru_stime,
        "minor_faults": ru.ru_minflt - ru0.ru_minflt,  # pages the entry touched fresh
        "max_rss_mb": ru.ru_maxrss / 1024,  # Linux reports kilobytes
        # the process's peak carries over from entry to entry; this one's rise
        "max_rss_rise_mb": (ru.ru_maxrss - ru0.ru_maxrss) / 1024,
        "blas_threads": blas_threads(),
    }
    return result


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set, or the machine's
    CPU count where there is no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(specs, tasks: int, results: int, inherited: list[int]):
    """A forked worker: close the pipe ends it ``inherited`` from the
    parent, then for each 4-byte spec index read from ``tasks`` run that
    spec and write its result to ``results`` as an 8-byte length and a
    pickle, until ``tasks`` ends.  It leaves through ``os._exit`` and never
    returns into the caller's code."""
    status = 1
    try:
        for fd in inherited:  # a worker that held another's task pipe would keep it open
            os.close(fd)
        _one_blas_thread()
        # the parent writes one index at a time, in one write, which a pipe
        # keeps whole; an empty read is the end of the pipe
        while index := os.read(tasks, 4):
            data = pickle.dumps(_run_one(specs[int.from_bytes(index, "little")]))
            message = memoryview(len(data).to_bytes(8, "little") + data)
            while message:
                message = message[os.write(results, message):]
        status = 0
    finally:
        os._exit(status)


class _Worker:
    """The parent's side of one forked worker: its pid, its task and result
    pipes, the spec index it runs (None once it has no more), when it got
    that spec, and the bytes of its result read so far."""

    def __init__(self, specs, running: dict):
        tasks_r, self.tasks = os.pipe()
        self.results, results_w = os.pipe()
        inherited = [self.tasks, self.results]
        inherited += [fd for w in running.values() for fd in (w.tasks, w.results) if fd is not None]
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (tasks_r, self.tasks, self.results, results_w):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(specs, tasks_r, results_w, inherited)
        os.close(tasks_r)
        os.close(results_w)
        self.index, self.started, self.data = None, 0.0, bytearray()
        running[self.results] = self

    def give(self, todo):
        """Hand this worker the next index of ``todo``, or, with none left,
        close its task pipe, which ends it."""
        if not todo:
            self.index = None
            os.close(self.tasks)
            self.tasks = None
            return
        self.index, self.started = todo.popleft(), time.perf_counter()
        try:
            os.write(self.tasks, self.index.to_bytes(4, "little"))
        except BrokenPipeError:  # it has died: its result pipe ends, and says so
            pass

    def result(self):
        """Its result, once all of it has been read, else None."""
        if len(self.data) < 8 or len(self.data) < 8 + int.from_bytes(self.data[:8], "little"):
            return None
        result, self.data = pickle.loads(self.data[8:]), bytearray()
        return result

    def reap(self, spec=None):
        """Close its pipes and wait for it; with ``spec``, the entry it was
        running, return that entry's result as one that died with it."""
        for fd in (self.results, self.tasks):
            if fd is not None:
                os.close(fd)
        self.results = self.tasks = None
        _, status, ru = os.wait4(self.pid, 0)
        if spec is None:
            return None
        if os.WIFSIGNALED(status):
            how = f"killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exit status {os.WEXITSTATUS(status)}"
        result = _raised(spec["name"], f"worker process died: {how}")
        result["usage"] = {  # what the parent can tell of the entry
            "name": spec["name"], "params": None, "pid": self.pid,
            "wall_s": time.perf_counter() - self.started, "cpu_s": None,
            "minor_faults": None, "max_rss_mb": ru.ru_maxrss / 1024,  # the worker's peak
            "max_rss_rise_mb": None, "blas_threads": None,
        }
        return result


def execute_suite(specs, workers: int):
    """Run ``specs``, each of which carries its own seed (``_run_one``), on
    ``workers`` forked processes, each pinned to one BLAS thread, or in this
    process, with its BLAS threads left alone, when ``workers`` is 1;
    results come back in spec order.  One call may mix entries, seeds and
    refine levels.

    The workers live for the whole call and are handed spec indices in
    spec order as they come free.  An entry whose worker dies gets the
    ``raised`` row and an ``error`` naming the exit status or signal, a new
    worker takes its place, and the other entries run on.  Should this
    process raise, it kills and reaps every worker first."""
    # Every entry draws from numpy.random.  Imported here, before any entry
    # runs, it is charged to no entry, and forked workers inherit it; a
    # bare import of this module does not load it.
    import numpy.random  # noqa: F401

    if workers <= 1:
        return [_run_one(spec) for spec in specs]
    # Every worker pins its BLAS threads: looked up once here, the handle
    # is inherited, not loaded per worker.
    _openblas()
    results, todo = [None] * len(specs), collections.deque(range(len(specs)))
    running = {}  # result pipe -> _Worker
    try:
        for _ in range(min(workers, len(specs))):
            _Worker(specs, running).give(todo)
        while running:
            # always read a ready pipe: a result may exceed the pipe's buffer
            for fd in select.select(list(running), [], [])[0]:
                w = running[fd]
                if chunk := os.read(fd, 1 << 16):
                    w.data += chunk
                    if (result := w.result()) is not None:
                        results[w.index] = result
                        w.give(todo)
                    continue
                # the worker has exited; if it had an entry, it died
                if w.index is None:
                    w.reap()
                else:
                    results[w.index] = w.reap(specs[w.index])
                del running[fd]
                if w.index is not None and todo:
                    _Worker(specs, running).give(todo)
    except BaseException:
        for w in running.values():
            os.kill(w.pid, signal.SIGKILL)
            w.reap()
        raise
    return results


def _csv_row(row) -> str:
    return f"{row.metric},{row.value!r},{row.threshold!r},{str(row.passed).lower()}"


def summary_lines(results) -> list[str]:
    lines = ["entry,metric,value,threshold,pass"]
    for res in results:
        lines.extend(f"{res['entry']},{_csv_row(row)}" for row in res["rows"])
    return lines


def write_outputs(outdir: Path, results, fmt: str, meta: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    csv_text = "\n".join(summary_lines(results)) + "\n"
    (outdir / "summary.csv").write_text(csv_text, encoding="utf-8")
    for res in results:
        payload = {
            "entry": res["entry"],
            "anchor": res["anchor"],
            "rows": [
                {
                    "metric": r.metric,
                    "value": r.value,
                    "threshold": r.threshold,
                    "pass": r.passed,
                }
                for r in res["rows"]
            ],
            "details": res["details"],
        }
        if "error" in res:
            payload["error"] = res["error"]
        if fmt in ("json", "both"):
            (outdir / f"{res['entry']}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        if fmt in ("csv", "both"):
            rows_text = "\n".join(
                ["metric,value,threshold,pass"] + [_csv_row(r) for r in res["rows"]]
            )
            (outdir / f"{res['entry']}.csv").write_text(
                rows_text + "\n", encoding="utf-8"
            )
    (outdir / "run_metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _build_info() -> dict:
    """numpy's build record: its BLAS, not the core OpenBLAS picks at run
    time (``blas_core``), and its SIMD targets, the baseline it was built
    for and the dispatch targets it enabled on this CPU (each None where
    numpy records none).  Report bytes move with that core and with
    numpy's SIMD dispatch."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config.get("SIMD Extensions", {})
    return {
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "simd_baseline": simd.get("baseline"),
        "simd_dispatch": simd.get("found"),
    }


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    seed = resolve_seed(cfg, args.seed)
    specs = cfg["suite"] if "suite" in cfg else [{"name": n} for n in suite.CATALOG]
    if args.entry is not None:
        # the config's own specs for the entry keep its params, refine and require
        specs = [s for s in specs if s["name"] == args.entry] or [{"name": args.entry}]
    # every spec carries the run's seed, and --refine overrides its level
    refine = {} if args.refine is None else {"refine": args.refine}
    specs = [{**s, "seed": seed, **refine} for s in specs]
    unknown = [s["name"] for s in specs if s["name"] not in suite.CATALOG]
    if unknown:
        print(f"error: unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_ERROR
    cpus = available_cpus()
    requested = args.workers or int(cfg.get("workers", 0)) or cpus
    workers = min(requested, len(specs), cpus)
    outdir = Path(args.out or cfg.get("output_dir", "reports"))
    fmt = args.format or cfg.get("format", "json")
    started = time.time()
    results = execute_suite(specs, workers)
    meta = {
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "seed": seed,
        "workers_requested": requested,
        "workers": workers,
        "package_version": __version__,
        "numpy_version": np.__version__,
        **_build_info(),
        "blas_core": blas_core(),
        "entry_count": len(results),
        "entries": [res["usage"] for res in results],
        # this process's own peak, read once its workers are reaped: their
        # peaks are in "entries"
        "parent_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # without .pyc files every process compiles the package from source,
        # which raises the peaks above
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }
    write_outputs(outdir, results, fmt, meta)
    total = sum(len(r["rows"]) for r in results)
    failed = sum(1 for r in results for row in r["rows"] if not row.passed)
    for res in results:
        ok = all(row.passed for row in res["rows"])
        print(f"{'PASS' if ok else 'FAIL'} {res['entry']} ({len(res['rows'])} rows)")
        if "error" in res:
            print(f"error: entry {res['entry']} raised {res['error']}", file=sys.stderr)
    print(f"summary: {total - failed}/{total} rows passed -> {outdir / 'summary.csv'}")
    if any("error" in res for res in results):
        return EXIT_ERROR  # entry blow-ups are runtime errors, not failures
    return EXIT_OK if failed == 0 else EXIT_FAIL


def cmd_list_entries(_args) -> int:
    width = max(len(name) for name in suite.CATALOG)
    for name, entry in suite.CATALOG.items():
        print(f"{name:<{width}}  {entry.anchor}")
    return EXIT_OK


def cmd_describe(args) -> int:
    entry = suite.CATALOG.get(args.name)
    if entry is None:
        print(f"error: unknown entry {args.name!r}", file=sys.stderr)
        return EXIT_ERROR
    print(entry.name)
    print(f"  statement: {entry.anchor}")
    print(f"  check: {entry.summary}")
    print("  params:" if entry.params else "  params: none")
    for key, (default, low, high) in entry.params.items():
        print(f"    {key}: default {json.dumps(default)}, minimum {low}, maximum {high}")
    print("  rows:")
    for metric, direction, threshold in entry.rows:
        bound = "measured by the run" if threshold is suite.MEASURED else repr(threshold)
        print(f"    {metric} {direction} {bound}")
    return EXIT_OK


def _int_at_least(key: str):
    """An argparse type: an integer at least ``RUN_FIELDS``' smallest ``key``."""
    low = RUN_FIELDS[key][1]

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev-banach",
        description="Verification suite for Sobolev calculus with Banach-space "
        "values: derivative fields, embedding and compactness checks, and "
        "counterexample witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute suite entries from a JSON config")
    runp.add_argument("config", help="path to the run config (JSON)")
    runp.add_argument("--out", help="output directory (default from config)")
    runp.add_argument("--seed", type=_int_at_least("seed"),
                      help="override the run seed")
    runp.add_argument("--format", choices=["json", "csv", "both"],
                      help="per-entry report format")
    runp.add_argument("--entry", help="run a single catalog entry")
    _, low, high = SPEC_FIELDS["refine"]
    runp.add_argument("--refine", type=int, choices=range(low, high + 1),
                      help="override the refinement level for all entries")
    runp.add_argument("--workers", type=_int_at_least("workers"),
                      help="worker processes (default and cap: CPUs available)")
    runp.set_defaults(func=cmd_run)

    listp = sub.add_parser("list-entries", help="list catalog entries")
    listp.set_defaults(func=cmd_list_entries)

    descp = sub.add_parser("describe", help="describe one catalog entry")
    descp.add_argument("name")
    descp.set_defaults(func=cmd_describe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
