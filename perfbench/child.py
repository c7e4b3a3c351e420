"""Child-process entry points of the benchmark; ``run.py`` starts them.

    python3 child.py probe
        print the run metadata the package sees (versions, backend, BLAS).
    python3 child.py cli RESULT -- ARGS...
        run ``sobolev_banach.cli.main(ARGS)`` with the tracer installed and
        write its per-layer metrics to RESULT; the exit code is the CLI's.
    python3 child.py library RESULT --seed S --seconds T --trace 0|1
        run the library-large workload and write its timings to RESULT.

``sobolev_banach`` must be importable (``run.py`` puts ``src`` on the path).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def probe() -> dict:
    import numpy as np
    import scipy

    from sobolev_banach import cli, kernel_backend  # noqa: F401  (import as a run would)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernel_backend(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", "").split(" MAX_THREADS")[0],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _catalog_entries() -> list[str]:
    from sobolev_banach import cli, suite  # noqa: F401  (load every layer)

    return list(suite.CATALOG)


def traced_cli(result_path: str, argv: list[str]) -> int:
    import tracer
    from sobolev_banach import cli

    entries = _catalog_entries()
    t = tracer.Tracer()
    traced = set(t.targets())
    t.install()
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t.drain(), traced, entries)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "layers": metrics}, fh)
    return code


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run(thunk):
    try:
        return thunk()
    except Exception as e:  # a raising call is a failed operation
        print(f"library-large: call raised {type(e).__name__}: {e}", file=sys.stderr)
        return e


def library(result_path: str, seed: int, seconds: float, trace: bool) -> int:
    """An untimed warm-up pass, timed passes until ``seconds`` have gone by,
    then a pass checked against the reference computations.  With ``trace``
    the timed passes alternate between untraced and traced.

    A call fails in a timed pass when its result differs from the warm-up
    pass, and in every pass when the checked pass disagrees with the
    reference or with the warm-up pass."""
    import library as lib
    import tracer

    inputs = lib.Inputs(seed)
    calls = lib.calls(inputs)
    t0 = time.perf_counter()
    digests = [lib.digest(_run(thunk)) for _, thunk, _ in calls]
    spent = time.perf_counter() - t0

    t = tracer.Tracer() if trace else None
    traced, entries = (set(t.targets()), _catalog_entries()) if trace else (None, None)
    walls, cpus, twalls, layers = [], [], [], []
    mismatches = [0] * len(calls)
    while spent < seconds or not walls or (trace and not twalls):
        traced_pass = trace and len(twalls) < len(walls)
        if traced_pass:
            t.install()
        wall = cpu = 0.0
        try:
            for k, (_, thunk, _) in enumerate(calls):
                w0, c0 = time.perf_counter(), _cpu()
                result = _run(thunk)
                wall += time.perf_counter() - w0
                cpu += _cpu() - c0
                mismatches[k] += lib.digest(result) != digests[k]
                del result
        finally:
            if traced_pass:
                t.uninstall()
        if traced_pass:
            twalls.append(wall)
            layers.append(tracer.layer_metrics(t.drain(), traced, entries))
        else:
            walls.append(wall)
            cpus.append(cpu)
        spent += wall

    # Peak memory of the work, read before the reference computations run.
    out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    passes = len(walls) + len(twalls)
    bad_calls = []
    for k, (label, thunk, spec) in enumerate(calls):
        result = _run(thunk)
        if isinstance(result, Exception) or lib.digest(result) != digests[k] or not lib.check_call(result, spec):
            bad_calls.append(label)
            mismatches[k] = passes
        del result
    out.update(walls=walls, cpus=cpus, attempted=passes * len(calls),
               failed=sum(mismatches), bad_calls=bad_calls)
    if trace:
        out["layers"] = tracer.combine(layers)
        out["layers"]["trace.overhead_s"] = statistics.median(twalls) - statistics.median(walls)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["probe"]:
        print(json.dumps(probe()))
        return 0
    if argv[:1] == ["cli"]:
        sep = argv.index("--")
        return traced_cli(argv[1], argv[sep + 1 :])
    parser = argparse.ArgumentParser(prog="child.py library")
    parser.add_argument("mode", choices=["library"])
    parser.add_argument("result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return library(args.result, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
