"""Benchmark of the sobolev-banach package: one command, three workloads.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 10] [--trace 0|1]

Workloads (each driven by one process, at most two threads, one BLAS thread):

* ``catalog-r0-cold`` - a fresh ``python -m sobolev_banach run`` of the full
  catalog at ``--refine 0 --workers 2 --format both``.  Import is about a
  third of the wall time and the run is many small calls that write 47
  report files, so it shows set-up, per-call overhead and the output path.
* ``catalog-r2`` - the same cold run at ``--refine 2``.  ``norm_chain_rule``
  is the critical path; realize, ``banach.norm`` and the pairings dominate.
* ``library-large`` - one warm process making direct public calls on seeded
  large grids (see ``library.py``).  Few, large calls: kernels and
  bandwidth-bound norms do the work; import, ``suite`` and ``cli`` do none.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics ``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``ok_frac``; with ``--trace 1`` it holds the per-layer metrics of a run with
the tracer of ``tracer.py`` installed.  Catalog outputs are checked against a
``--workers 1`` reference run at the same seed, library results against the
reference computations of ``library.py``.  The package is run from the
``src`` directory of the checkout that holds this file.

What the layers should move: realize, ``banach.norm`` and pairing self time
move ``wall_s`` and ``cpu_s`` on ``catalog-r2`` (critical path) and barely
on ``catalog-r0-cold``.  While ``suite.critical_path_share`` stays above 0.5
on ``catalog-r2``, speeding up an entry off the path moves ``cpu_s`` there
but not ``wall_s``; the same change moves ``wall_s`` on ``library-large``.
``setup.*`` moves ``setup_s`` everywhere and ``wall_s`` only on
``catalog-r0-cold``, as do ``cli.write_outputs`` and ``reports``.  Work
counts (``realize.nodes``, ``finite_difference.nodes``, ``holder_max.pairs``,
``banach.norm.calls`` against ``.elements``) show added or removed work and
per-call overhead as exact counts.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from tracer import SETUP_PACKAGES, combine, metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "catalog-r0-cold": {"refine": 0},
    "catalog-r2": {"refine": 2},
    "library-large": {},
}
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


class Child(NamedTuple):
    """Outcome of one child process: exit code, wall time from spawn to
    exit, CPU time and peak resident memory from its own rusage."""

    code: int
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("SOBOLEV_BANACH_SEED", "SOBOLEV_BANACH_KERNELS"):
        env.pop(key, None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(cmd: list[str], cwd: Path, stdout=subprocess.DEVNULL, stderr=None) -> Child:
    """Run ``cmd`` to completion, killing it after CHILD_TIMEOUT_S."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def python(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


# -- set-up ---------------------------------------------------------------------------


def setup_times(tmp: Path) -> list[float]:
    """Wall times of cold ``import sobolev_banach.cli`` processes."""
    return [spawn(python("-c", "import sobolev_banach.cli"), tmp).wall for _ in range(SETUP_REPEATS)]


def import_breakdown(text: str, packages=SETUP_PACKAGES) -> dict[str, float]:
    """Seconds of ``-X importtime`` output owned by each package.

    Every module's self time goes to the package it belongs to or, for a
    module outside the listed packages, to the package whose import first
    pulled it in.  Modules imported before any listed package are left out.
    """
    # Lines read "import time: <self us> | <cumulative us> | <indent><name>",
    # children before their parent, two spaces of indent per level.
    roots: list[tuple[int, str, int, list]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while roots and roots[-1][0] > depth:
            children.append(roots.pop())
        roots.append((depth, raw.strip(), int(self_us), children[::-1]))

    def owner(name, inherited):
        for p in packages:
            if name == p or name.startswith(p + "."):
                return p
        return inherited

    totals = dict.fromkeys(packages, 0.0)

    def walk(node, inherited):
        _, name, self_us, children = node
        pkg = owner(name, inherited)
        if pkg is not None:
            totals[pkg] += self_us / 1e6
        for child in children:
            walk(child, pkg)

    for node in roots:
        walk(node, None)
    return totals


def setup_breakdown(tmp: Path) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        log = tmp / "importtime.log"
        with open(log, "w", encoding="utf-8") as fh:
            spawn(python("-X", "importtime", "-c", "import sobolev_banach.cli"), tmp, stderr=fh)
        runs.append(import_breakdown(log.read_text(encoding="utf-8")))
    return {f"setup.{p}_s": statistics.median(r[p] for r in runs) for p in SETUP_PACKAGES}


# -- metadata ---------------------------------------------------------------------------


def metadata(tmp: Path, seed: int) -> dict:
    out = tmp / "probe.json"
    with open(out, "w", encoding="utf-8") as fh:
        code = spawn(python(HERE / "child.py", "probe"), tmp, stdout=fh).code
    meta = json.loads(out.read_text(encoding="utf-8")) if code == 0 else {"probe": f"exit {code}"}
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        rev = got.stdout.strip() or rev
    meta.update(nproc=os.cpu_count(), git_revision=rev, seed=seed)
    return meta


# -- catalog workloads ----------------------------------------------------------------------


def summary_failures(summary: bytes) -> set[str]:
    """Entries with at least one failing row in a ``summary.csv``."""
    bad = set()
    for line in summary.decode("utf-8").splitlines()[1:]:
        fields = line.split(",")
        if fields[-1] != "true":
            bad.add(fields[0])
    return bad


def summary_entries(summary: bytes) -> list[str]:
    return sorted({line.split(",", 1)[0] for line in summary.decode("utf-8").splitlines()[1:]})


def judge(code: int, summary: bytes | None, reference: bytes | None, entries: list[str]) -> int:
    """Failed entries of one catalog run: all of them unless it exited 0
    with a summary byte-identical to the reference, else those with a
    failing row."""
    if code != 0 or summary is None or summary != reference:
        return len(entries)
    return len(summary_failures(summary))


def read_summary(outdir: Path) -> bytes | None:
    path = outdir / "summary.csv"
    return path.read_bytes() if path.is_file() else None


def catalog(tmp: Path, seed: int, seconds: float, trace: bool, refine: int) -> dict:
    config = tmp / "config.json"
    config.write_text('{"schema_version": 1}\n', encoding="utf-8")

    def args(outdir: Path, workers: int) -> list[str]:
        return ["run", str(config), "--out", str(outdir), "--refine", str(refine),
                "--workers", str(workers), "--format", "both", "--seed", str(seed)]

    ref_dir = tmp / "reference"
    ref = spawn(python("-m", "sobolev_banach", *args(ref_dir, 1)), tmp)
    reference = read_summary(ref_dir) if ref.code == 0 else None
    entries = summary_entries(reference) if reference else ["(no reference)"]
    if reference is not None and summary_failures(reference):
        reference = None  # a failing reference fails every run checked against it
    if reference is None:
        print(f"catalog: the --workers 1 reference run failed (exit {ref.code})", file=sys.stderr)

    outdir, result = tmp / "out", tmp / "layers.json"
    runs, traced_runs, layers = [], [], []
    failed, spent = 0, 0.0
    # Traced iterations alternate with untraced ones, so drift in the
    # machine's speed falls on both sides of trace.overhead_s alike.
    while spent < seconds or not runs or (trace and not traced_runs):
        shutil.rmtree(outdir, ignore_errors=True)
        if trace and len(traced_runs) < len(runs):
            result.unlink(missing_ok=True)
            child = spawn(python(HERE / "child.py", "cli", result, "--", *args(outdir, 2)), tmp)
            if result.is_file():
                layers.append(json.loads(result.read_text(encoding="utf-8"))["layers"])
            traced_runs.append(child)
        else:
            child = spawn(python("-m", "sobolev_banach", *args(outdir, 2)), tmp)
            runs.append(child)
        failed += judge(child.code, read_summary(outdir), reference, entries)
        spent += child.wall

    out = {
        "walls": [c.wall for c in runs],
        "cpus": [c.cpu for c in runs],
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
        "attempted": len(entries) * (len(runs) + len(traced_runs)),
        "failed": failed,
    }
    if trace:
        out["layers"] = combine(layers) if layers else {}
        out["layers"]["trace.overhead_s"] = (
            statistics.median(c.wall for c in traced_runs) - statistics.median(out["walls"])
        )
    return out


# -- library workload ---------------------------------------------------------------------------


def library(tmp: Path, seed: int, seconds: float, trace: bool) -> dict:
    result = tmp / "library.json"
    child = spawn(python(HERE / "child.py", "library", result, "--seed", seed,
                         "--seconds", seconds, "--trace", int(trace)), tmp)
    if child.code != 0 or not result.is_file():
        raise RuntimeError(f"library-large worker exited {child.code}")
    out = json.loads(result.read_text(encoding="utf-8"))
    if out["bad_calls"]:
        print(f"library-large: wrong results from {', '.join(out['bad_calls'])}", file=sys.stderr)
    return out


# -- driver ---------------------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    meta = metadata(tmp, seed)
    print("metadata: " + json.dumps(meta, sort_keys=True))
    setup = [] if trace else setup_times(tmp)
    if workload == "library-large":
        res = library(tmp, seed, seconds, trace)
    else:
        res = catalog(tmp, seed, seconds, trace, **WORKLOADS[workload])
    attempted, failed = res["attempted"], res["failed"]
    print(f"operations: attempted={attempted} failed={failed}")
    if trace:
        metrics = setup_breakdown(tmp)
        metrics.update(res["layers"])
        units = {k: metric_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
        print(f"medians of {len(setup)} set-ups and {len(res['walls'])} iterations; "
              f"wall_s samples: {' '.join(f'{w:.3f}' for w in res['walls'])}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(f"failed_frac = {failed / attempted:.6g} frac")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and the scratch
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sobolev_banach" / "__init__.py").is_file():
        print(f"error: no sobolev_banach package under {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
