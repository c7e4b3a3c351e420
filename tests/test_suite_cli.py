"""Catalog integrity and the command-line front end.

CLI tests drive ``main`` in-process with throwaway configs; the quick
catalog entries keep each run under a second.
"""

import dataclasses
import json
import os
import warnings
from pathlib import Path

import pytest

from sobolev_banach import cli, suite
from sobolev_banach.errors import ConfigError

FAST = ["stampacchia_disjointness", "extension_reflection"]
# a few tens of milliseconds each, so that two workers both get work
MEDIUM = ["w0_equivalences", "aubin_lions_compact", "embedding_constants",
          "norm_gradient_bound"]
two_cpus = pytest.mark.skipif(
    cli.available_cpus() < 2, reason="needs two CPUs to fork two workers"
)


def _write_config(tmp_path, body):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(body), encoding="utf-8")
    return str(p)


def _basic_config(tmp_path, **over):
    body = {
        "schema_version": 1,
        "seed": 42,
        "suite": [{"name": n} for n in FAST],
        "format": "both",
    }
    body.update(over)
    return _write_config(tmp_path, body)


def test_catalog_is_populated():
    assert len(suite.CATALOG) >= 18
    for name, entry in suite.CATALOG.items():
        assert entry.name == name
        assert entry.anchor and entry.summary
        assert callable(entry.builder)


def test_run_entry_deterministic_and_unknown():
    rows1, det1 = suite.run_entry("extension_reflection", seed=42)
    rows2, det2 = suite.run_entry("extension_reflection", seed=42)
    assert rows1 == rows2
    assert det1 == det2
    assert all(r.passed for r in rows1)
    with pytest.raises(KeyError):
        suite.run_entry("no_such_entry", seed=42)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli.resolve_seed({}, None) == 42
    assert cli.resolve_seed({"seed": 7}, None) == 7
    monkeypatch.setenv(cli.SEED_ENV, "9")
    assert cli.resolve_seed({"seed": 7}, None) == 9
    assert cli.resolve_seed({"seed": 7}, 3) == 3
    monkeypatch.setenv(cli.SEED_ENV, "many")
    with pytest.raises(ConfigError):
        cli.resolve_seed({}, None)


def test_cli_run_writes_reports(tmp_path, capsys):
    cfg = _basic_config(tmp_path)
    out = tmp_path / "reports"
    code = cli.main(["run", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    for name in FAST:
        assert f"PASS {name}" in printed
        assert (out / f"{name}.json").exists()
        assert (out / f"{name}.csv").exists()
    assert "summary:" in printed
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "entry,metric,value,threshold,pass"
    assert all(line.endswith(",true") for line in summary[1:])
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["seed"] == 42 and meta["entry_count"] == len(FAST)


def test_cli_determinism_across_worker_counts(tmp_path):
    cfg = _basic_config(tmp_path)
    outs = []
    for workers, sub in ((1, "a"), (3, "b")):
        out = tmp_path / sub
        assert (
            cli.main(["run", cfg, "--out", str(out), "--workers", str(workers)])
            == cli.EXIT_OK
        )
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_seed_precedence_end_to_end(tmp_path, monkeypatch):
    cfg = _basic_config(tmp_path, seed=5)
    base = tmp_path / "base"
    cli.main(["run", cfg, "--out", str(base), "--seed", "11"])
    monkeypatch.setenv(cli.SEED_ENV, "11")
    via_env = tmp_path / "env"
    cli.main(["run", cfg, "--out", str(via_env)])  # env beats config seed 5
    assert (base / "summary.csv").read_bytes() == (via_env / "summary.csv").read_bytes()
    assert json.loads((via_env / "run_metadata.json").read_text())["seed"] == 11


def test_cli_require_gate_forces_failure(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "schema_version": 1,
            "suite": [
                {
                    "name": "extension_reflection",
                    "require": {"w_growth_vs_bound": {"max": -1.0}},
                }
            ],
        },
    )
    out = tmp_path / "reports"
    code = cli.main(["run", cfg, "--out", str(out)])
    assert code == cli.EXIT_FAIL
    assert "FAIL extension_reflection" in capsys.readouterr().out
    summary = (out / "summary.csv").read_text()
    assert "w_growth_vs_bound<=max" in summary
    assert ",false" in summary


def test_cli_require_unknown_metric(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "schema_version": 1,
            "suite": [
                {"name": "extension_reflection", "require": {"nope": {"max": 1.0}}}
            ],
        },
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == cli.EXIT_ERROR
    assert "unknown metric" in capsys.readouterr().err


def test_cli_schema_violations_report_pointers(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"schema_version": 2, "suite": [{"refine": 1}], "extra_key": True},
    )
    assert cli.main(["run", cfg]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "/schema_version" in err
    assert "/suite/0" in err
    assert "extra_key" in err


def test_cli_bad_config_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", missing]) == cli.EXIT_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "cannot read config" in err
    assert "not valid JSON" in err


def test_cli_empty_suite_passes_vacuously(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": []})
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert (out / "summary.csv").read_text() == "entry,metric,value,threshold,pass\n"


def test_cli_unknown_entry(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"schema_version": 1, "suite": [{"name": "bogus"}]}
    )
    assert cli.main(["run", cfg]) == cli.EXIT_ERROR
    assert "unknown entries: bogus" in capsys.readouterr().err
    cfg2 = _basic_config(tmp_path)
    assert cli.main(["run", cfg2, "--entry", "also_bogus"]) == cli.EXIT_ERROR


def test_cli_single_entry_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"schema_version": 1})
    out = tmp_path / "solo"
    code = cli.main(
        ["run", cfg, "--entry", "stampacchia_disjointness", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert all(
        line.startswith("stampacchia_disjointness,") for line in lines[1:]
    )


def test_cli_list_and_describe(capsys):
    assert cli.main(["list-entries"]) == cli.EXIT_OK
    listed = capsys.readouterr().out
    for name in suite.CATALOG:
        assert name in listed
    assert cli.main(["describe", "dq_criterion"]) == cli.EXIT_OK
    desc = capsys.readouterr().out
    assert "Difference Quotient Criterion" in desc
    assert "statement:" in desc and "check:" in desc
    assert cli.main(["describe", "bogus"]) == cli.EXIT_ERROR
    assert "unknown entry" in capsys.readouterr().err


def test_norm_chain_rule_passes_at_refine_1():
    rows, details = suite.run_entry("norm_chain_rule", 42, refine=1)
    assert details["ladder"] == [64, 128, 256, 512]
    assert rows and all(r.passed for r in rows)


def test_cli_refine_1_identical_across_worker_counts(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1, "seed": 42})
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = cli.main(
            ["run", cfg, "--out", str(out), "--refine", "1", "--workers", str(workers)]
        )
        assert code == cli.EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_extension_reflection_passes_at_refine_3():
    rows, _ = suite.run_entry("extension_reflection", 42, refine=3)
    assert rows and all(r.passed for r in rows)


def test_cli_raising_entry_keeps_other_reports(tmp_path, capsys, monkeypatch):
    def boom(rng, refine, n):
        raise RuntimeError("boom")

    entry = suite.CATALOG["extension_reflection"]
    monkeypatch.setitem(
        suite.CATALOG, entry.name, dataclasses.replace(entry, builder=boom)
    )
    cfg = _basic_config(tmp_path)
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out), "--workers", "2"]) == cli.EXIT_ERROR
    assert "error: entry extension_reflection raised RuntimeError: boom" in (
        capsys.readouterr().err
    )
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert "extension_reflection,raised,nan,nan,false" in summary
    assert [s for s in summary if s.startswith("stampacchia_disjointness,")]
    report = json.loads((out / "extension_reflection.json").read_text())
    assert report["error"] == "RuntimeError: boom"
    other = json.loads((out / "stampacchia_disjointness.json").read_text())
    assert "error" not in other and all(r["pass"] for r in other["rows"])


@pytest.mark.parametrize(
    "spec, pointer, message",
    [
        ({"name": "norm_chain_rule", "params": {"lader": [32, 64]}},
         "/suite/0/params", "'lader' was unexpected"),
        ({"name": "embedding_constants", "params": {"n": "abc"}},
         "/suite/0/params/n", "is not of type 'integer'"),
        ({"name": "tensor_extension_norms", "params": {"matrices": 0}},
         "/suite/0/params/matrices", "less than the minimum of 1"),
        ({"name": "extension_reflection", "params": {"n": -4}},
         "/suite/0/params/n", "less than the minimum of 4"),
        ({"name": "dq_criterion", "params": {"p": 0.5}},
         "/suite/0/params/p", "less than the minimum of 1"),
        ({"name": "quotient_rule", "params": {"ladder": [64]}},
         "/suite/0/params/ladder", "is too short"),
        ({"name": "quotient_rule", "params": {"ladder": [64, 64]}},
         "/suite/0/params/ladder", "non-unique elements"),
        ({"name": "witness_c0_sine", "params": {"n": 256}},
         "/suite/0/params", "'n' was unexpected"),
        ({"name": "quotient_rule", "params": {"ladder": [256, 1024]}},
         "/suite/0/params/ladder/1", "greater than the maximum of 512"),
    ],
)
def test_cli_rejects_bad_params_before_running(
    tmp_path, capsys, spec, pointer, message
):
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": [spec]})
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert f"{pointer}: " in err and message in err
    assert not out.exists()


def test_descending_ladder_runs_ascending():
    down, _ = suite.run_entry("norm_chain_rule", 42, 0, {"ladder": [256, 128, 64, 32]})
    up, _ = suite.run_entry("norm_chain_rule", 42, 0, {"ladder": [32, 64, 128, 256]})
    assert down and all(r.passed for r in down), down
    assert down == up


def test_integral_floats_run_like_integers(tmp_path):
    summaries = []
    for n, ladder in ((256, [64, 128, 256]), (256.0, [64.0, 128.0, 256.0])):
        cfg = _write_config(
            tmp_path,
            {
                "schema_version": 1,
                "suite": [
                    {"name": "stampacchia_disjointness", "params": {"n": n}},
                    {"name": "quotient_rule", "params": {"ladder": ladder}},
                ],
                "format": "both",
            },
        )
        out = tmp_path / f"out_{type(n).__name__}"
        assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_OK
        summaries.append(
            [(out / f).read_bytes() for f in ("summary.csv", "quotient_rule.json")]
        )
    assert summaries[0] == summaries[1]
    with pytest.raises(TypeError, match="lader"):
        suite.run_entry("quotient_rule", 42, params={"lader": [64, 128]})


def test_spelled_out_defaults_match_the_bare_config(tmp_path):
    suite_specs = [
        {
            "name": name,
            "params": {
                key: list(default) if isinstance(default, tuple) else default
                for key, (default, _) in entry.params.items()
            },
        }
        for name, entry in suite.CATALOG.items()
    ]
    outs = []
    for body in ({"schema_version": 1}, {"schema_version": 1, "suite": suite_specs}):
        cfg = _write_config(tmp_path, dict(body, seed=42))
        out = tmp_path / f"out{len(outs)}"
        code = cli.main(["run", cfg, "--out", str(out), "--workers", "2"])
        assert code == cli.EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "name", [name for name, entry in suite.CATALOG.items() if entry.params]
)
def test_entry_passes_at_declared_minimum(tmp_path, name):
    params = {
        key: [low, 2 * low] if isinstance(default, tuple) else low
        for key, (default, low) in suite.CATALOG[name].params.items()
    }
    spec = {"name": name, "params": params}
    cli.load_config(_write_config(tmp_path, {"schema_version": 1, "suite": [spec]}))
    rows, _ = suite.run_entry(name, 42, 0, params)
    assert rows and all(r.passed for r in rows), rows


def test_schema_and_describe_read_the_declarations(capsys):
    rules = cli.CONFIG_SCHEMA["properties"]["suite"]["items"]["allOf"]
    names = [r["if"]["properties"]["name"]["const"] for r in rules]
    assert names == list(suite.CATALOG)
    for name, rule in zip(names, rules):
        entry = suite.CATALOG[name]
        assert rule["then"]["properties"]["params"] == entry.params_schema()
        assert set(entry.params_schema()["properties"]) == set(entry.params)
        assert cli.main(["describe", entry.name]) == cli.EXIT_OK
        desc = capsys.readouterr().out
        for key, (default, low) in entry.params.items():
            assert f"    {key}: default {json.dumps(default)}, minimum {low}" in desc
        if not entry.params:
            assert "params: none" in desc


def test_readme_full_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("Full form:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block, encoding="utf-8")
    cfg = cli.load_config(str(path))
    assert any("params" in spec for spec in cfg["suite"])


def _count_forks(monkeypatch):
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def _run_names(tmp_path, names, *flags):
    cfg = _write_config(
        tmp_path, {"schema_version": 1, "suite": [{"name": n} for n in names]}
    )
    out = tmp_path / "reports"
    code = cli.main(["run", cfg, "--out", str(out), *flags])
    meta_path = out / "run_metadata.json"
    return code, json.loads(meta_path.read_text()) if meta_path.exists() else None


def test_sidecar_records_each_entry_in_process(tmp_path):
    code, meta = _run_names(tmp_path, MEDIUM, "--workers", "1")
    assert code == cli.EXIT_OK
    assert meta["workers"] == meta["workers_requested"] == 1
    assert [e["name"] for e in meta["entries"]] == MEDIUM
    for e in meta["entries"]:
        assert set(e) == {"name", "pid", "wall_s", "cpu_s", "max_rss_mb"}
        assert e["pid"] == os.getpid()
        assert e["wall_s"] > 0 and e["cpu_s"] >= 0 and e["max_rss_mb"] > 0


@two_cpus
def test_sidecar_records_each_entry_in_workers(tmp_path):
    code, meta = _run_names(tmp_path, MEDIUM, "--workers", "2")
    assert code == cli.EXIT_OK
    assert meta["workers"] == 2
    assert [e["name"] for e in meta["entries"]] == MEDIUM
    pids = {e["pid"] for e in meta["entries"]}
    assert len(pids) >= 2 and os.getpid() not in pids


def test_workers_capped_at_available_cpus(tmp_path, monkeypatch):
    forked = _count_forks(monkeypatch)
    names = FAST * 12
    code, meta = _run_names(tmp_path, names, "--workers", "64")
    assert code == cli.EXIT_OK
    cpus = cli.available_cpus()
    assert meta["workers_requested"] == 64
    assert meta["workers"] == min(64, len(names), cpus)
    assert len(forked) <= cpus
    assert len({e["pid"] for e in meta["entries"]}) <= cpus


def test_single_entry_forks_nothing(tmp_path, monkeypatch):
    forked = _count_forks(monkeypatch)
    cfg = _write_config(tmp_path, {"schema_version": 1})
    out = tmp_path / "solo"
    args = ["run", cfg, "--entry", "extension_reflection", "--out", str(out)]
    assert cli.main(args + ["--workers", "2"]) == cli.EXIT_OK
    meta = json.loads((out / "run_metadata.json").read_text())
    assert forked == []
    assert meta["workers_requested"] == 2 and meta["workers"] == 1
    assert [e["pid"] for e in meta["entries"]] == [os.getpid()]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_workers_flag_must_be_positive(tmp_path, capsys, value):
    cfg = _basic_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", cfg, "--out", str(tmp_path / "r"), "--workers", value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", pytest.param("2", marks=two_cpus)])
def test_require_error_crosses_process_boundary(tmp_path, capsys, workers):
    cfg = _write_config(
        tmp_path,
        {
            "schema_version": 1,
            "suite": [
                {"name": "stampacchia_disjointness"},
                {"name": "extension_reflection", "require": {"nope": {"max": 1.0}}},
            ],
        },
    )
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "--out", str(out), "--workers", workers]) == (
        cli.EXIT_ERROR
    )
    assert capsys.readouterr().err == (
        "error: entry extension_reflection: require references unknown metric "
        "'nope'\n"
    )
    assert not out.exists()


@two_cpus
def test_dead_worker_is_reported(tmp_path, capsys, monkeypatch):
    def die(rng, refine, n):
        os._exit(3)

    entry = suite.CATALOG["extension_reflection"]
    monkeypatch.setitem(
        suite.CATALOG, entry.name, dataclasses.replace(entry, builder=die)
    )
    code, meta = _run_names(tmp_path, FAST, "--workers", "2")
    assert code == cli.EXIT_ERROR and meta is None
    assert "error: worker process died: " in capsys.readouterr().err


@two_cpus
def test_forking_workers_warns_nothing(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, meta = _run_names(tmp_path, FAST, "--workers", "2")
    assert code == cli.EXIT_OK and meta["workers"] == 2
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
