"""Command-line front end for the verification suite.

``run`` executes catalog entries from a JSON config and writes a summary
CSV plus per-entry reports; ``list-entries`` and ``describe`` expose the
catalog.  Entries run in forked worker processes, or in this process when
one worker is used.  Reports are deterministic for a fixed seed — wall-clock
and per-entry resource metadata live only in a sidecar file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import jsonschema

from . import __version__, suite
from .errors import ConfigError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2

SEED_ENV = "SOBOLEV_BANACH_SEED"

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "format": {"enum": ["json", "csv", "both"]},
        "workers": {"type": "integer", "minimum": 1},
        "suite": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "refine": {"type": "integer", "minimum": 0, "maximum": 3},
                    "params": {"type": "object"},
                    "require": {
                        "type": "object",
                        "minProperties": 1,
                        "additionalProperties": {
                            "type": "object",
                            "minProperties": 1,
                            "additionalProperties": False,
                            "properties": {
                                "max": {"type": "number"},
                                "min": {"type": "number"},
                            },
                        },
                    },
                },
                # each entry's params as declared in the catalog
                "allOf": [
                    {
                        "if": {
                            "required": ["name"],
                            "properties": {"name": {"const": name}},
                        },
                        "then": {"properties": {"params": entry.params_schema()}},
                    }
                    for name, entry in suite.CATALOG.items()
                ],
            },
        },
    },
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors:
            pointer = "/" + "/".join(str(p) for p in err.absolute_path)
            lines.append(f"{pointer}: {err.message}")
        raise ConfigError("config schema violations:\n  " + "\n  ".join(lines))
    return cfg


def resolve_seed(cfg: dict, cli_seed: int | None) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as e:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from e
    return int(cfg.get("seed", 42))


def _apply_require(name: str, rows, require: dict):
    by_metric = {r.metric: r for r in rows}
    extra = []
    for metric, bounds in require.items():
        if metric not in by_metric:
            raise ConfigError(
                f"entry {name}: require references unknown metric {metric!r}"
            )
        value = by_metric[metric].value
        if "max" in bounds:
            extra.append(
                suite.Row(f"{metric}<=max", value, float(bounds["max"]),
                          value <= bounds["max"])
            )
        if "min" in bounds:
            extra.append(
                suite.Row(f"{metric}>=min", value, float(bounds["min"]),
                          value >= bounds["min"])
            )
    return list(rows) + extra


def _run_one(spec: dict, seed: int, refine_override: int | None):
    wall0, ru0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    name = spec["name"]
    refine = refine_override if refine_override is not None else spec.get("refine", 0)
    result = {"entry": name, "anchor": suite.CATALOG[name].anchor}
    try:
        rows, details = suite.run_entry(name, seed, refine, spec.get("params"))
    except Exception as e:  # one entry's blow-up must not lose the others' reports
        traceback.print_exc()
        result["error"] = f"{type(e).__name__}: {e}"
        rows, details = [suite.Row("raised", math.nan, math.nan, False)], {}
    else:
        if spec.get("require"):
            rows = _apply_require(name, rows, spec["require"])
    result["rows"] = rows
    result["details"] = details
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["usage"] = {  # measured in the process that ran the entry
        "name": name,
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": ru.ru_utime + ru.ru_stime - ru0.ru_utime - ru0.ru_stime,
        "max_rss_mb": ru.ru_maxrss / 1024,  # Linux reports kilobytes
    }
    return result


def available_cpus() -> int:
    """CPUs this process may run on; 1 where workers cannot be forked."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def execute_suite(specs, seed: int, workers: int, refine_override=None):
    """Run ``specs`` on ``workers`` forked processes, or in this process
    when ``workers`` is 1; results come back in spec order."""
    if workers <= 1:
        return [_run_one(spec, seed, refine_override) for spec in specs]
    # Imported here, so that importing this module and one-worker runs do
    # not pay for them.
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    # Fork, so workers inherit the imported package (and a patched CATALOG).
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [
            pool.submit(_run_one, spec, seed, refine_override) for spec in specs
        ]
        return [f.result() for f in futures]


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


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        seed = resolve_seed(cfg, args.seed)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    if args.entry is not None:
        specs = [{"name": args.entry}]
    elif "suite" in cfg:
        specs = cfg["suite"]
    else:
        specs = [{"name": name} for name in suite.CATALOG]
    unknown = [s["name"] for s in specs if s["name"] not in suite.CATALOG]
    if unknown:
        print(f"error: unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_ERROR
    cpus = available_cpus()
    requested = args.workers or cfg.get("workers") or cpus
    workers = min(requested, len(specs), cpus)
    outdir = Path(args.out or cfg.get("output_dir", "reports"))
    fmt = args.format or cfg.get("format", "json")
    started = time.time()
    try:
        results = execute_suite(specs, seed, workers, args.refine)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as e:
        # BrokenProcessPool is a RuntimeError; its module is imported only
        # by the pool, so it is imported here only once something raised.
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(e, BrokenProcessPool):
            raise
        print(f"error: worker process died: {e}", file=sys.stderr)
        return EXIT_ERROR
    meta = {
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "seed": seed,
        "workers_requested": requested,
        "workers": workers,
        "package_version": __version__,
        "entry_count": len(results),
        "entries": [res["usage"] for res in results],
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
    for key, (default, low) in entry.params.items():
        print(f"    {key}: default {json.dumps(default)}, minimum {low}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    runp.add_argument("--seed", type=int, help="override the run seed")
    runp.add_argument("--format", choices=["json", "csv", "both"],
                      help="per-entry report format")
    runp.add_argument("--entry", help="run a single catalog entry")
    runp.add_argument("--refine", type=int, choices=range(0, 4),
                      help="override the refinement level for all entries")
    runp.add_argument("--workers", type=_positive_int,
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
