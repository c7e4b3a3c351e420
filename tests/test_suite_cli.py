"""Catalog integrity and the command-line front end.

CLI tests drive ``main`` in-process with throwaway configs; the quick
catalog entries keep each run under a second.
"""

import json

import pytest

from sobolev_banach import cli, suite
from sobolev_banach.errors import ConfigError

FAST = ["stampacchia_disjointness", "extension_reflection"]


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
