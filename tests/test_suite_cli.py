"""Catalog integrity and the command-line front end.

CLI tests drive ``main`` in-process with throwaway configs; the quick
catalog entries keep each run under a second.
"""

import dataclasses
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_banach import cli, reports, suite
from sobolev_banach.errors import ContractError

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


def test_builders_take_rng_and_their_declared_params_only():
    # entry_params alone applies refine, so no builder reads it
    for entry in suite.CATALOG.values():
        params = inspect.signature(entry.builder).parameters
        assert list(params) == ["rng", *entry.params], entry.name


def test_w0_equivalences_holds_the_same_functions_on_every_level():
    # members are a sin(pi t) + (b/4) sin(2 pi t), non-members c + w sin(2 pi t),
    # with one coefficient pair per function on every level of the ladder
    levels = suite._w0_corpus(suite.entry_rng("w0_equivalences", 42), [16, 64])
    assert [(len(m), len(s)) for m, s in levels] == [(10, 10), (10, 10)]
    fits = []
    for members, non_members in levels:
        level = members + non_members
        t = (np.arange(level[0].node_count) + 0.5) / level[0].node_count
        wave = np.sin(2 * np.pi * t)
        coefs = []
        for i, u in enumerate(level):
            basis = np.stack([np.sin(np.pi * t), wave / 4] if i < 10
                             else [np.ones_like(t), wave], axis=1)
            coef, *_ = np.linalg.lstsq(basis, u.values, rcond=None)
            np.testing.assert_allclose(basis @ coef, u.values, atol=1e-12)
            coefs.append(coef)
        fits.append(np.array(coefs))
    np.testing.assert_allclose(fits[0], fits[1], rtol=0, atol=1e-12)


def test_w0_equivalences_checks_the_verdicts_on_the_top_level_only(monkeypatch):
    # verdict_agreement reads the top level's verdicts, boundary_decay_order
    # the members' boundary norms on every level: nothing else is computed
    seen = []
    check = suite.theorems.weak_w0_check
    monkeypatch.setattr(suite.theorems, "weak_w0_check", lambda u: seen.append(u) or check(u))
    calls = []
    member = suite.theorems.w0_membership
    monkeypatch.setattr(suite.theorems, "w0_membership", lambda u: calls.append(u) or member(u))
    rows, details = suite.run_entry("w0_equivalences", 42, 0, {"ladder": [16, 64]})
    assert len(seen) == 20 and {u.node_count for u in seen} == {64}
    # 10 members on the lower level, then on the top level 20 direct and
    # 20 scalar verdicts and 3 per weak check, one per coordinate pairing
    assert len(calls) == 10 + 20 + 20 + 3 * 20
    top = suite._w0_corpus(suite.entry_rng("w0_equivalences", 42), [16, 64])[-1]
    for u, want in zip(seen, top[0] + top[1]):
        assert np.array_equal(u.values, want.values)
    assert [(r.metric, r.value) for r in rows][0] == ("verdict_agreement", 20.0)
    assert len(details["member_boundary_norms"]) == 2


def test_run_entry_deterministic_and_unknown():
    rows1, det1 = suite.run_entry("extension_reflection", seed=42)
    rows2, det2 = suite.run_entry("extension_reflection", seed=42)
    assert rows1 == rows2
    assert det1 == det2
    assert all(r.passed for r in rows1)
    with pytest.raises(KeyError):
        suite.run_entry("no_such_entry", seed=42)


# each row is one check: none of these entries' rows restates another row
# of its entry or cannot fail
ENTRY_METRICS = {
    "norm_chain_rule": ["fitted_order", "final_l1_err"],
    "morrey_d1": ["worst_ratio", "sqrt_profile_constant_gap"],
    "aubin_lions_compact": ["max_count_growth"],
    "aubin_lions_control": ["n_eps01_growth"],
    "lipschitz_composition": ["norm_map_excess", "linear_excess"],
    "stampacchia_disjointness": ["derivative_overlap"],
    "norm_map_continuity": ["scalar_tracking_order"],
}


@pytest.mark.parametrize("name", list(ENTRY_METRICS))
def test_no_row_restates_another_row_of_its_entry(name):
    rows, _ = suite.run_entry(name, 42, 0)
    assert [r.metric for r in rows] == ENTRY_METRICS[name]
    assert all(r.passed for r in rows)


def test_corpus_holds_thirty_members():
    for seed in range(10):
        assert len(suite.corpus_blueprints(suite.entry_rng("norm_chain_rule", seed))) == 30


@pytest.mark.parametrize("name,metric,constant,value", [
    ("norm_map_continuity", "scalar_tracking_order", "NORM_MAP_ORDER_MIN", 1.5),
    ("aubin_lions_compact", "max_count_growth", "AUBIN_LIONS_GROWTH_CAP", 0.5),
])
def test_twin_row_takes_its_threshold_from_the_producer(monkeypatch, name, metric,
                                                        constant, value):
    # the row that stands for the verdict compares with the verdict's own bound
    monkeypatch.setattr(suite.theorems, constant, value)
    [row] = [r for r in suite.run_entry(name, 42, 0)[0] if r.metric == metric]
    assert row.threshold == value and not row.passed


def test_each_spec_runs_with_its_own_seed_and_refine():
    specs = [{"name": "extension_reflection", "seed": s, "refine": r} for s, r in ((1, 0), (2, 1))]
    results = cli.execute_suite(specs, 1)
    for spec, res in zip(specs, results):
        assert res["rows"] == suite.run_entry(spec["name"], spec["seed"], spec["refine"])[0]
    assert results[0]["rows"] != results[1]["rows"]


def test_resolve_seed_precedence():
    assert cli.resolve_seed({}, None) == 42
    assert cli.resolve_seed({"seed": 7}, None) == 7
    assert cli.resolve_seed({"seed": 7}, 3) == 3
    assert cli.resolve_seed({}, 0) == 0


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


def test_cli_seed_precedence_end_to_end(tmp_path):
    flag = tmp_path / "flag"
    cfg = _basic_config(tmp_path, seed=5)
    cli.main(["run", cfg, "--out", str(flag), "--seed", "11"])  # beats config seed 5
    config = tmp_path / "config"
    cli.main(["run", _basic_config(tmp_path, seed=11), "--out", str(config)])
    assert (flag / "summary.csv").read_bytes() == (config / "summary.csv").read_bytes()
    assert json.loads((flag / "run_metadata.json").read_text())["seed"] == 11


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
    # a metric the entry does not declare is rejected with the config,
    # before any entry runs
    cfg = _write_config(
        tmp_path,
        {
            "schema_version": 1,
            "suite": [
                {"name": "stampacchia_disjointness"},
                {"name": "poincare_eigenvalue", "require": {"no_such_metric": {"max": 1.0}}},
            ],
        },
    )
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: config schema violations:\n  /suite/1/require/no_such_metric: "
        "poincare_eigenvalue declares no row 'no_such_metric'\n"
    )
    assert not out.exists()


def test_require_bound_equal_to_value_passes_max_and_min():
    # the pass is decided on the float the row prints: 2**53 + 1 in the
    # config is the float 2**53, equal to the metric's value
    for value, bound in ((0.1, 0.1), (2.0**53, 2**53 + 1)):
        rows = [suite.Row("m", value, 1.0, True)]
        _, at_max, at_min = cli._apply_require(rows, {"m": {"max": bound, "min": bound}})
        assert at_max == suite.Row("m<=max", value, value, True)
        assert at_min == suite.Row("m>=min", value, value, True)


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


def test_cli_rejects_empty_suite(tmp_path, capsys):
    # a suite with no entry would pass with "0/0 rows passed"
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": []})
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: config schema violations:\n  /suite: [] is too short\n"
    assert not out.exists()


def test_cli_rejects_repeated_entry(tmp_path, capsys):
    # the second product_rule's report files would overwrite the first one's
    # while summary.csv kept the rows of both
    specs = [{"name": "product_rule"}, {"name": "quotient_rule"},
             {"name": "product_rule", "params": {"ladder": [32, 64, 128]}},
             {"name": "product_rule"}]
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": specs})
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: config schema violations:\n"
        "  /suite/2/name: 'product_rule' repeats /suite/0/name\n"
        "  /suite/3/name: 'product_rule' repeats /suite/0/name\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("flag", [[], ["--entry", "quotient_rule"]])
def test_single_entry_flag_keeps_config_spec(tmp_path, flag):
    spec = {
        "name": "quotient_rule",
        "params": {"ladder": [32, 64]},
        "require": {"fitted_order": {"min": 5.0}},
    }
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": [spec]})
    out = tmp_path / "reports"
    args = ["run", cfg, "--workers", "1", "--out", str(out), *flag]
    assert cli.main(args) == cli.EXIT_FAIL
    report = json.loads((out / "quotient_rule.json").read_text())
    assert report["details"]["ladder"] == [32, 64]


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


# Seeds at which a fitted chain-rule order falls below its 0.9 threshold
# at refine 0: the error of a kink stencil depends on where the kink falls
# in its cell, so the order over four levels scatters around 1.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name,seed", [
    ("lattice_chain_rules", 34),
    ("norm_chain_rule", 285),
    ("lattice_chain_rules", 299),
    ("lattice_chain_rules", 924),
])
def test_every_seed_passes_at_refine_0(name, seed):
    rows, _ = suite.run_entry(name, seed)
    assert rows and all(r.passed for r in rows), [r for r in rows if not r.passed]


def _fresh_python(code: str, *args: str) -> list[str]:
    """The lines that ``code`` prints in a fresh interpreter, where no module
    this test process loaded counts."""
    src = str(Path(suite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, *args],
                         env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_no_catalog_entry_imports_scipy(tmp_path):
    # scipy is a test dependency only, and no run needs jsonschema; a fresh
    # interpreter runs every entry and loads the README's full config
    code = (
        "import sys\n"
        "from sobolev_banach import cli, suite\n"
        "for name in suite.CATALOG:\n"
        "    suite.run_entry(name, 42)\n"
        "cli.load_config(sys.argv[1])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    assert _fresh_python(code, _readme_full_config(tmp_path)) == ["[]"]


# numpy 1.x imports numpy.ma and numpy.random with numpy itself, numpy 2
# on first use; the two tests below compare with what numpy alone loads.
FRESH_NUMPY = "import sys\nimport numpy\nalone = set(sys.modules)\n"


def test_one_worker_catalog_run_leaves_numpy_ma_unimported(tmp_path):
    # np.unique and np.median import numpy.ma only to look for masked input
    code = FRESH_NUMPY + (
        "from sobolev_banach import cli\n"
        "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2], '--workers', '1'])\n"
        "print(code, ('numpy.ma' in sys.modules) == ('numpy.ma' in alone))\n"
    )
    cfg = _write_config(tmp_path, {"schema_version": 1})
    assert _fresh_python(code, cfg, str(tmp_path / "r"))[-1] == f"{cli.EXIT_OK} True"


def test_one_worker_run_imports_numpy_random_before_its_first_entry():
    # so the first entry of a one-process run is not charged for the import
    code = FRESH_NUMPY + (
        "from sobolev_banach import cli\n"
        "run_one, had = cli._run_one, []\n"
        "def first(spec):\n"
        "    had.append('numpy.random' in sys.modules)\n"
        "    return run_one(spec)\n"
        "cli._run_one = first\n"
        "print(('numpy.random' in sys.modules) == ('numpy.random' in alone))\n"
        "cli.execute_suite([{'name': 'quotient_rule', 'seed': 42}], 1)\n"
        "print(had)\n"
    )
    assert _fresh_python(code) == ["True", "[True]"]


@two_cpus
def test_forked_workers_inherit_numpy_random():
    # importing the package leaves numpy.random to its first use; each probe
    # entry reports whether its worker had it before drawing the entry's rng
    code = FRESH_NUMPY + (
        "import os\n"
        "from sobolev_banach import cli, suite\n"
        "had = []\n"
        "draw = suite.entry_rng\n"
        "def entry_rng(name, seed):\n"
        "    had.append('numpy.random' in sys.modules)\n"
        "    return draw(name, seed)\n"
        "def probe(rng):\n"
        "    return {'inherited': had[-1]}, {'pid': os.getpid()}\n"
        "suite.entry_rng = entry_rng\n"
        "suite.CATALOG['probe'] = suite.CatalogEntry(\n"
        "    'probe', '', '', probe, {}, (('inherited', *suite.YES),))\n"
        "print(('numpy.random' in sys.modules) == ('numpy.random' in alone))\n"
        "results = cli.execute_suite([{'name': 'probe', 'seed': 42}] * 4, 2)\n"
        "print(sorted({r['details']['pid'] != os.getpid() for r in results}))\n"
        "print(sorted({row.passed for r in results for row in r['rows']}))\n"
    )
    assert _fresh_python(code) == ["True", "[True]", "[True]"]


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
    def boom(rng, n):
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
        ({"name": "aubin_lions_compact", "params": {"levels": 5}},
         "/suite/0/params/levels", "greater than the maximum of 4"),
        ({"name": "witness_indicator_path", "params": {"n": 1000000}},
         "/suite/0/params/n", "greater than the maximum of 512"),
        ({"name": "dq_criterion", "params": {"p": 65.0}},
         "/suite/0/params/p", "greater than the maximum of 64"),
        # levels closer than a doubling give no order to fit
        ({"name": "w0_equivalences", "params": {"ladder": [256, 257]}},
         "/suite/0/params/ladder", "level 257 is less than twice the level 256"),
        ({"name": "w0_equivalences", "params": {"ladder": [500, 512]}},
         "/suite/0/params/ladder", "level 512 is less than twice the level 500"),
        ({"name": "w0_equivalences", "params": {"ladder": [401, 386, 387]}},
         "/suite/0/params/ladder", "level 387 is less than twice the level 386"),
        ({"name": "dq_criterion", "params": {"ladder": [256, 257]}},
         "/suite/0/params/ladder", "level 257 is less than twice the level 256"),
        ({"name": "norm_chain_rule", "params": {"ladder": [512, 500]}},
         "/suite/0/params/ladder", "level 512 is less than twice the level 500"),
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


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "dq_criterion", "params": {"p": math.nan}},
        {"name": "dq_criterion", "params": {"p": math.inf}},
        {"name": "dq_criterion", "require": {"c_est_fitted_order": {"min": -math.inf}}},
        {"name": "product_rule", "require": {"fitted_order": {"min": math.nan}}},
    ],
)
def test_cli_rejects_non_json_constants(tmp_path, capsys, spec):
    # json.dumps writes the Python extensions NaN, Infinity and -Infinity
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": [spec]})
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "is not valid JSON" in err and "is not a JSON number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ('{"name": "product_rule", "require": {"fitted_order": {"min": -1e400}}}',
         "/suite/0/require/fitted_order/min"),
        ('{"name": "dq_criterion", "params": {"p": 1e400}}', "/suite/0/params/p"),
        ('{"name": "quotient_rule", "refine": -1e400}', "/suite/0/refine"),
    ],
)
def test_cli_rejects_overflowing_numbers(tmp_path, capsys, spec, pointer):
    # json.loads turns 1e400 into inf; written raw, since json.dumps(inf) gives Infinity
    cfg = tmp_path / "config.json"
    cfg.write_text('{"schema_version": 1, "suite": [%s]}' % spec, encoding="utf-8")
    out = tmp_path / "reports"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert f"{pointer}: " in err and "is not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, pointer",
    [
        ([{"schema_version": 1}], "/"),
        ({"schema_version": 1, "suite": ["norm_chain_rule"]}, "/suite/0"),
        ({"schema_version": 1, "suite": {"name": "norm_chain_rule"}}, "/suite"),
        ({"schema_version": 1, "suite": [{"name": "dq_criterion", "params": [2.0]}]},
         "/suite/0/params"),
        ({"schema_version": 1, "suite": [{"name": "dq_criterion", "require": {}}]},
         "/suite/0/require"),
        ({"schema_version": 1, "suite": [{"name": "dq_criterion", "require": []}]},
         "/suite/0/require"),
        ({"schema_version": 1,
          "suite": [{"name": "dq_criterion", "require": {"c_est_fitted_order": {}}}]},
         "/suite/0/require/c_est_fitted_order"),
        ({"schema_version": 1,
          "suite": [{"name": "dq_criterion", "require": {"c_est_fitted_order": {"mx": 1}}}]},
         "/suite/0/require/c_est_fitted_order"),
        ({"schema_version": 1,
          "suite": [{"name": "dq_criterion", "require": {"c_est_fitted_order": {"min": "1"}}}]},
         "/suite/0/require/c_est_fitted_order/min"),
        ({"schema_version": 1,
          "suite": [{"name": "embedding_constants", "params": {"n": True}}]},
         "/suite/0/params/n"),
        ({"schema_version": 1,
          "suite": [{"name": "quotient_rule", "params": {"ladder": [64, [128]]}}]},
         "/suite/0/params/ladder/1"),
        ({"schema_version": 1,
          "suite": [{"name": "quotient_rule", "params": {"ladder": 64}}]},
         "/suite/0/params/ladder"),
        ({"schema_version": 1, "suite": [{"params": {"n": 64}}]}, "/suite/0"),
        ({"schema_version": 1, "suite": [{"name": ["dq_criterion"]}]}, "/suite/0/name"),
        ({"schema_version": 1, "suite": [{"name": "quotient_rule", "refine": 1.5}]},
         "/suite/0/refine"),
        ({"schema_version": True}, "/schema_version"),
        ({"schema_version": 1, "seed": "42"}, "/seed"),
        ({"schema_version": 1, "workers": 0}, "/workers"),
        ({"schema_version": 1, "output_dir": 7}, "/output_dir"),
        ({"schema_version": 1, "format": "xml"}, "/format"),
        ({"seed": 42}, "/"),
        # RFC 6901: "~" is escaped as "~0" and "/" as "~1"
        ({"schema_version": 1,
          "suite": [{"name": "dq_criterion", "require": {"a/b": {"max": "1"}}}]},
         "/suite/0/require/a~1b/max"),
        ({"schema_version": 1,
          "suite": [{"name": "dq_criterion", "require": {"m~1": {"min": "1"}}}]},
         "/suite/0/require/m~01/min"),
    ],
)
def test_cli_rejects_malformed_config_shapes(tmp_path, capsys, body, pointer):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "reports"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: config schema violations:\n")
    assert f"\n  {pointer}: " in err and "Traceback" not in err
    assert not out.exists()


def test_integral_float_refine_and_workers_run_like_integers(tmp_path):
    summaries = []
    for refine, workers in ((1, 2), (1.0, 2.0)):
        cfg = _write_config(tmp_path, {
            "schema_version": 1, "workers": workers,
            "suite": [{"name": n, "refine": refine} for n in FAST]})
        out = tmp_path / f"out_{type(refine).__name__}"
        assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_OK
        summaries.append((out / "summary.csv").read_bytes())
    assert summaries[0] == summaries[1]


def test_descending_ladder_runs_ascending():
    down, _ = suite.run_entry("norm_chain_rule", 42, 0, {"ladder": [256, 128, 64, 32]})
    up, _ = suite.run_entry("norm_chain_rule", 42, 0, {"ladder": [32, 64, 128, 256]})
    assert down and all(r.passed for r in down), down
    assert down == up


@given(
    st.lists(st.integers(1, 4096), min_size=2, max_size=5, unique=True),
    st.integers(0, 3),
    st.integers(0, 8192),
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_ladder_levels_ascend_fit_and_refine_evenly(levels, refine, headroom):
    # entry_params hands _ladder a sorted base whose levels the config
    # check keeps within the top
    base = tuple(sorted(levels))
    top = base[-1] + headroom
    out = suite._ladder(base, refine, top)
    assert all(a < b for a, b in zip(out, out[1:]))
    assert out[-1] <= top
    (r,) = [r for r in range(refine + 1) if out == tuple(n * 2**r for n in base)]
    # and r is the largest such refinement
    assert r == refine or base[-1] * 2 ** (r + 1) > top


def test_refine_lowers_until_the_top_level_fits():
    assert suite._ladder((64, 128, 256), 3, 512) == (128, 256, 512)
    assert suite._ladder((64, 128, 256, 512), 2, 512) == (64, 128, 256, 512)
    rows, details = suite.run_entry("quotient_rule", 42, 1, {"ladder": [256, 512]})
    assert details["ladder"] == [256, 512]
    assert rows and all(r.passed for r in rows), rows


def test_refine_doubles_grid_sizes_only():
    assert suite.entry_params("poincare_eigenvalue", 2) == {"n": 2048}
    assert suite.entry_params("dq_criterion", 3, {"ladder": [128.0, 32], "p": 3}) == {
        "ladder": (128, 512), "p": 3.0}
    assert suite.entry_params("aubin_lions_compact", 3) == {
        "members": 30, "levels": 3, "n": 1024}
    assert suite.entry_params("aubin_lions_control", 3) == {"members": 30, "n": 8192}
    assert suite.entry_params("tensor_extension_norms", 3, {"matrices": 7}) == {
        "matrices": 7}


@pytest.mark.parametrize("name,refine,params,message", [
    ("w0_equivalences", 0, {"ladder": [64, 64]}, "params/ladder: [64, 64] has non-unique elements"),
    ("norm_chain_rule", 0, {"ladder": [16, 24]},
     "params/ladder: level 24 is less than twice the level 16 below it"),
    ("norm_gradient_bound", 0, {"n": 100000}, "params/n: 100000 is greater than the maximum of 512"),
    ("morrey_d1", 0, {"n": 3}, "params/n: 3 is less than the minimum of 256"),
    ("norm_chain_rule", 0, {"lader": [32, 64]}, "params: 'lader' was unexpected"),
    ("morrey_d1", 0, {"n": "abc"}, "params/n: 'abc' is not of type 'integer'"),
    ("morrey_d1", 5, None, "refine: 5 is greater than the maximum of 3"),
], ids=["repeated-level", "close-levels", "n-above", "n-below", "misspelt", "n-str", "refine-5"])
def test_library_calls_reject_what_the_config_check_rejects(name, refine, params, message):
    # before any work, with the config check's own message
    want = f"^{re.escape(f'{name}: {message}')}$"
    with pytest.raises(ContractError, match=want):
        suite.entry_params(name, refine, params)
    with pytest.raises(ContractError, match=want):
        suite.run_entry(name, 42, refine, params)
    spec = {"name": name, "refine": refine} | ({"params": params} if params else {})
    assert cli.config_errors({"schema_version": 1, "suite": [spec]}) == [f"/suite/0/{message}"]


def test_library_calls_take_numpy_numbers_and_reject_nan():
    # a library caller may hold its sizes as numpy numbers; NaN is no number
    assert suite.entry_params("morrey_d1", 1, {"n": np.int64(512)}) == {"n": 1024}
    assert suite.entry_params("norm_chain_rule", 0, {"ladder": (np.int64(64), 32)}) == {
        "ladder": (32, 64)}
    with pytest.raises(ContractError, match=r"^dq_criterion: params/p: nan is not a finite number$"):
        suite.entry_params("dq_criterion", 0, {"p": math.nan})


@given(st.lists(st.sampled_from([0.0, -0.0, 2.5, math.inf, -math.inf, math.nan])
                | st.floats(), min_size=1, max_size=8))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fit_loglog_degenerate_check_matches_unique(xs):
    # all NaNs count as one value, as np.unique's equal_nan has it
    xs = np.array(xs)
    assert reports._one_value(xs) == (np.unique(xs).size < 2)


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan]) | st.floats(),
                min_size=1, max_size=40))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_median_matches_numpy_bit_for_bit(xs):
    a = np.array(xs)
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite middles
        m, ref = suite._median(a), np.median(a)
    assert (math.isnan(m) and math.isnan(ref)) or np.float64(m).tobytes() == ref.tobytes()


def test_fit_order_is_nan_without_two_positive_errors():
    assert math.isnan(suite._fit_order([32, 64, 128], [0.0, 0.0, 1.0]))
    assert not suite.compare("fitted_order", suite._fit_order([32, 64], [0.0, 0.0]),
                             ">=", 0.9).passed


def test_full_catalog_passes_at_refine_3(tmp_path):
    cfg = _write_config(tmp_path, {"schema_version": 1})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r"), "--refine", "3"]) == (
        cli.EXIT_OK
    )


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
    # a misspelt param is rejected by name before the builder runs
    with pytest.raises(ContractError, match="'lader' was unexpected"):
        suite.run_entry("quotient_rule", 42, params={"lader": [64, 128]})


def test_spelled_out_defaults_match_the_bare_config(tmp_path):
    suite_specs = [
        {
            "name": name,
            "params": {
                key: list(default) if isinstance(default, tuple) else default
                for key, (default, *_) in entry.params.items()
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
        for key, (default, low, *_) in suite.CATALOG[name].params.items()
    }
    spec = {"name": name, "params": params}
    cli.load_config(_write_config(tmp_path, {"schema_version": 1, "suite": [spec]}))
    rows, _ = suite.run_entry(name, 42, 0, params)
    assert rows and all(r.passed for r in rows), rows


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, entry in suite.CATALOG.items() for key in entry.params],
)
def test_entry_passes_at_declared_maximum(tmp_path, name, key):
    default, _, high = suite.CATALOG[name].params[key]
    # a ladder that ends at the maximum
    params = {key: [high // 2, high] if isinstance(default, tuple) else high}
    spec = {"name": name, "params": params}
    cli.load_config(_write_config(tmp_path, {"schema_version": 1, "suite": [spec]}))
    rows, _ = suite.run_entry(name, 42, 0, params)
    assert rows and all(r.passed for r in rows), rows


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, entry in suite.CATALOG.items() for key in entry.params],
)
def test_load_config_rejects_values_just_outside_the_declarations(tmp_path, name, key):
    default, low, high = suite.CATALOG[name].params[key]
    pointer = f"/suite/0/params/{key}"
    if isinstance(default, tuple):  # the offending level is the first, then the second
        cases = [([low - 1, 2 * low], pointer + "/0"), ([high // 2, high + 1], pointer + "/1")]
    elif isinstance(default, float):
        cases = [(math.nextafter(low, -math.inf), pointer),
                 (math.nextafter(high, math.inf), pointer)]
    else:
        cases = [(low - 1, pointer), (high + 1, pointer)]
    for (value, at), message in zip(
        cases, [f"less than the minimum of {low}", f"greater than the maximum of {high}"]
    ):
        cfg = _write_config(
            tmp_path, {"schema_version": 1, "suite": [{"name": name, "params": {key: value}}]}
        )
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_config(cfg)
        assert f"\n  {at}: " in str(exc.value) and message in str(exc.value)


def test_describe_reads_the_declarations(capsys):
    for entry in suite.CATALOG.values():
        assert cli.main(["describe", entry.name]) == cli.EXIT_OK
        desc = capsys.readouterr().out
        for key, (default, low, high) in entry.params.items():
            line = f"    {key}: default {json.dumps(default)}, minimum {low}, maximum {high}"
            assert line + "\n" in desc
        if not entry.params:
            assert "params: none" in desc
        rows = desc.split("  rows:\n", 1)[1].splitlines()
        assert len(rows) == len(entry.rows)
        for line, (metric, direction, threshold) in zip(rows, entry.rows):
            assert direction in suite.DIRECTIONS
            bound = "measured by the run" if threshold is suite.MEASURED else repr(threshold)
            assert line == f"    {metric} {direction} {bound}"


@pytest.mark.parametrize("metrics", [
    ["restriction_exact"],  # a metric missing
    ["restriction_exact", "w_growth_vs_bound", "extra"],  # one not declared
    ["w_growth_vs_bound", "restriction_exact"],  # out of order
])
def test_builder_returning_other_metrics_than_declared_raises(monkeypatch, metrics):
    builder = suite.CATALOG["extension_reflection"].builder

    def other(rng, n):
        values, details = builder(rng, n)
        return {m: values.get(m, 1.0) for m in metrics}, details

    _replace_builder(monkeypatch, "extension_reflection", other)
    with pytest.raises(ContractError) as exc:
        suite.run_entry("extension_reflection", 42)
    assert str(exc.value) == (f"extension_reflection: metrics {metrics} are not the declared "
                              "['restriction_exact', 'w_growth_vs_bound']")


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def _readme_full_config(tmp_path) -> str:
    """Path of a file holding the README's full-form config."""
    block = _readme().split("Full form:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block, encoding="utf-8")
    return str(path)


def test_readme_full_config_loads(tmp_path):
    cfg = cli.load_config(_readme_full_config(tmp_path))
    assert any("params" in spec for spec in cfg["suite"])


def test_readme_python_blocks_run(capsys):
    # the library example prints the verdict of its dq_criterion first
    blocks = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("BOUNDED ")


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


SIDECAR_KEYS = {"name", "params", "pid", "wall_s", "cpu_s", "minor_faults", "max_rss_mb",
                "max_rss_rise_mb", "blas_threads"}


def test_sidecar_records_each_entry_in_process(tmp_path):
    code, meta = _run_names(tmp_path, MEDIUM, "--workers", "1")
    assert code == cli.EXIT_OK
    assert meta["workers"] == meta["workers_requested"] == 1
    # report bytes depend on numpy and on how its BLAS rounds row sums
    assert meta["numpy_version"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"]["name"] == blas["name"]
    assert set(meta["blas"]) <= {"name", "version", "openblas configuration"}
    # and on the core OpenBLAS runs on, which the build record need not name
    assert meta["blas_core"] == cli.blas_core()
    assert (meta["blas_core"] is None) == (cli._openblas() is None)
    assert [e["name"] for e in meta["entries"]] == MEDIUM
    for e in meta["entries"]:
        assert set(e) == SIDECAR_KEYS
        assert e["pid"] == os.getpid()
        assert e["wall_s"] > 0 and e["cpu_s"] >= 0 and e["max_rss_mb"] > 0
        assert isinstance(e["minor_faults"], int) and e["minor_faults"] >= 0
        assert 0 <= e["max_rss_rise_mb"] <= e["max_rss_mb"]
        # an in-process run leaves the BLAS threads alone
        assert e["blas_threads"] == cli.blas_threads()


@two_cpus
def test_sidecar_records_each_entry_in_workers(tmp_path):
    threads = cli.blas_threads()
    code, meta = _run_names(tmp_path, MEDIUM, "--workers", "2")
    assert code == cli.EXIT_OK
    assert meta["workers"] == 2
    assert [e["name"] for e in meta["entries"]] == MEDIUM
    for e in meta["entries"]:
        assert set(e) == SIDECAR_KEYS
        assert isinstance(e["minor_faults"], int) and e["minor_faults"] >= 0
    pids = {e["pid"] for e in meta["entries"]}
    assert len(pids) >= 2 and os.getpid() not in pids
    # each forked worker runs on one BLAS thread; this process keeps its own
    assert {e["blas_threads"] for e in meta["entries"]} == {None if threads is None else 1}
    assert cli.blas_threads() == threads
    # the calling process's own peak, apart from its workers'
    assert meta["parent_max_rss_mb"] > 0


def test_sidecar_records_the_parent_peak(tmp_path):
    code, meta = _run_names(tmp_path, MEDIUM, "--workers", "1")
    assert code == cli.EXIT_OK
    # read once every entry has run in this process: no entry's peak is above it
    assert meta["parent_max_rss_mb"] >= max(e["max_rss_mb"] for e in meta["entries"]) > 0
    # whether this process compiled the package without writing .pyc files
    assert meta["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)


def test_sidecar_records_numpy_simd_targets(tmp_path, monkeypatch):
    # report bytes move with numpy's SIMD dispatch, so the sidecar names the
    # targets numpy was built for and those it enabled on this CPU
    code, meta = _run_names(tmp_path, FAST, "--workers", "1")
    assert code == cli.EXIT_OK
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    assert meta["simd_baseline"] == simd["baseline"]
    assert meta["simd_dispatch"] == simd["found"]
    assert all(isinstance(t, str) for t in meta["simd_baseline"] + meta["simd_dispatch"])
    summary = (tmp_path / "reports" / "summary.csv").read_bytes()
    # a numpy that records no SIMD targets gives None for both
    config = np.show_config(mode="dicts")
    del config["SIMD Extensions"]
    monkeypatch.setattr(np, "show_config", lambda mode: config)
    (tmp_path / "again").mkdir()
    code, meta = _run_names(tmp_path / "again", FAST, "--workers", "1")
    assert meta["simd_baseline"] is None and meta["simd_dispatch"] is None
    assert (tmp_path / "again" / "reports" / "summary.csv").read_bytes() == summary


def test_blas_pin_is_a_no_op_without_numpy_openblas(tmp_path, monkeypatch):
    # numpy without a bundled scipy-openblas: nothing is found or called
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert cli._openblas.__wrapped__() is None
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert cli.blas_threads() is None and cli.blas_core() is None
    cli._one_blas_thread()


def test_workers_capped_at_available_cpus(tmp_path, monkeypatch):
    forked = _count_forks(monkeypatch)
    slow = {"norm_chain_rule", "tensor_extension_norms", "morrey_d1"}
    names = [n for n in suite.CATALOG if n not in slow]  # 20 distinct entries
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


def test_refine_flag_takes_the_declared_range(monkeypatch, capsys):
    monkeypatch.setitem(cli.SPEC_FIELDS, "refine", (1, 1, 2))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "config.json", "--refine", "0"])
    assert exc.value.code == 2
    assert "argument --refine: invalid choice: 0 (choose from 1, 2)" in capsys.readouterr().err


def test_seed_flag_takes_the_schema_minimum(tmp_path, capsys):
    cfg = _basic_config(tmp_path)
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", cfg, "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_sidecar_records_the_params_that_ran(tmp_path):
    code, meta = _run_names(tmp_path, ["quotient_rule", "stampacchia_disjointness"],
                            "--workers", "1", "--refine", "1")
    assert code == cli.EXIT_OK
    assert [e["params"] for e in meta["entries"]] == [
        {"ladder": [128, 256, 512]}, {"n": 512}]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=two_cpus)])
def test_require_error_crosses_process_boundary(workers):
    # execute_suite takes specs the config check never saw: a require of a
    # metric the entry does not declare is that entry's error
    specs = [
        {"name": "stampacchia_disjointness", "seed": 42},
        {"name": "extension_reflection", "seed": 42, "require": {"nope": {"max": 1.0}}},
    ]
    other, failed = cli.execute_suite(specs, workers)
    assert failed["error"] == "ConfigError: require references unknown metric 'nope'"
    assert [(r.metric, r.passed) for r in failed["rows"]] == [("raised", False)]
    assert "error" not in other and all(r.passed for r in other["rows"])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _replace_builder(monkeypatch, name, builder):
    entry = suite.CATALOG[name]
    monkeypatch.setitem(suite.CATALOG, name, dataclasses.replace(entry, builder=builder))


@two_cpus
def test_dead_worker_is_reported(tmp_path, capsys, monkeypatch):
    # one worker exits, another is killed: their entries get the raised row,
    # and every other entry reports as in a run where no worker died
    names = FAST + MEDIUM
    whole, dead = tmp_path / "whole", tmp_path / "dead"
    whole.mkdir(), dead.mkdir()
    code, _ = _run_names(whole, names, "--workers", "2", "--format", "both")
    assert code == cli.EXIT_OK
    _no_child_left()
    _replace_builder(monkeypatch, "extension_reflection", lambda rng, **params: os._exit(3))
    _replace_builder(monkeypatch, "aubin_lions_compact",
                     lambda rng, **params: os.kill(os.getpid(), signal.SIGKILL))
    code, meta = _run_names(dead, names, "--workers", "2", "--format", "both")
    assert code == cli.EXIT_ERROR
    _no_child_left()
    whole, dead = whole / "reports", dead / "reports"
    died = {"extension_reflection": "exit status 3",
            "aubin_lions_compact": f"killed by signal {int(signal.SIGKILL)}"}
    lines = (dead / "summary.csv").read_text().splitlines()
    assert lines[0] == "entry,metric,value,threshold,pass"
    for name in names:
        if name in died:
            assert f"{name},raised,nan,nan,false" in lines
            report = json.loads((dead / f"{name}.json").read_text())
            assert report["error"] == f"worker process died: {died[name]}"
            assert (dead / f"{name}.csv").read_text() == (
                "metric,value,threshold,pass\nraised,nan,nan,false\n")
        else:
            assert [l for l in lines if l.startswith(f"{name},")] == [
                l for l in (whole / "summary.csv").read_text().splitlines()
                if l.startswith(f"{name},")]
            for file in (f"{name}.json", f"{name}.csv"):
                assert (dead / file).read_bytes() == (whole / file).read_bytes()
    err = capsys.readouterr().err
    for name, how in died.items():
        assert f"error: entry {name} raised worker process died: {how}\n" in err
    entries = {e["name"]: e for e in meta["entries"]}
    assert [e["name"] for e in meta["entries"]] == names
    for name in died:  # run in a worker that is gone, with no sizes known
        assert entries[name]["pid"] != os.getpid() and entries[name]["params"] is None
        assert set(entries[name]) == SIDECAR_KEYS
    assert len({e["pid"] for e in meta["entries"]}) >= 3  # dead workers are replaced


@two_cpus
def test_no_worker_outlives_a_raising_parent(monkeypatch):
    # the parent raises while both workers are busy with entries that would
    # take a minute: it kills and reaps them before the exception leaves
    _replace_builder(monkeypatch, "extension_reflection", lambda rng, **params: time.sleep(60))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked worker inherits no timer
        with pytest.raises(KeyboardInterrupt):
            cli.execute_suite([{"name": "extension_reflection", "seed": 42}] * 3, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    _no_child_left()


@two_cpus
def test_results_larger_than_a_pipe_buffer_arrive_whole(monkeypatch):
    # each result is about 1.6 MB, many times a pipe's 64 KiB buffer, and
    # both workers write theirs at once
    def big(rng):
        return {"drawn": True}, {"draws": rng.random(200_000).tolist()}

    entry = suite.CatalogEntry("big", "", "", big, {}, (("drawn", *suite.YES),))
    monkeypatch.setitem(suite.CATALOG, "big", entry)
    specs = [{"name": "big", "seed": s} for s in range(4)]
    results = cli.execute_suite(specs, 2)
    assert [r["details"] for r in results] == [suite.run_entry("big", s)[1] for s in range(4)]
    assert len({r["usage"]["pid"] for r in results}) == 2
    _no_child_left()


@two_cpus
def test_failed_fork_leaves_no_worker_or_pipe(monkeypatch):
    # the second fork fails: the first worker is killed and reaped, and
    # every pipe the call opened is closed
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("no more processes")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    open_fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        cli.execute_suite([{"name": "extension_reflection", "seed": 42}] * 3, 2)
    _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == open_fds


@two_cpus
def test_worker_run_imports_no_process_pool(tmp_path):
    code = (
        "import sys\n"
        "from sobolev_banach import cli\n"
        "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2], '--workers', '2'])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    cfg = _write_config(tmp_path, {"schema_version": 1, "suite": [{"name": n} for n in FAST]})
    assert _fresh_python(code, cfg, str(tmp_path / "r"))[-1] == f"{cli.EXIT_OK} []"


def test_run_one_checks_params_once(monkeypatch):
    calls = []
    entry_params = suite.entry_params

    def counted(*args):
        calls.append(args)
        return entry_params(*args)

    monkeypatch.setattr(suite, "entry_params", counted)
    result = cli._run_one({"name": "quotient_rule", "seed": 42, "refine": 1,
                           "params": {"ladder": [32, 64]}})
    assert len(calls) == 1
    assert result["usage"]["params"] == {"ladder": (64, 128)}
    assert result["rows"] == suite.run_entry("quotient_rule", 42, 1, {"ladder": [32, 64]})[0]


@two_cpus
def test_forking_workers_warns_nothing(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, meta = _run_names(tmp_path, FAST, "--workers", "2")
    assert code == cli.EXIT_OK and meta["workers"] == 2
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    _no_child_left()


# The config fuzz: an entry, params within their declarations, ladders whose
# levels at least double, and a seed.  Every draw is a config that the
# config check accepts, so every row it runs must pass at refine 0.
FUZZ_EXAMPLES = 2000 if settings.get_current_profile_name() == "config-fuzz" else 60


@st.composite
def _ladders(draw, low, high):
    levels = [draw(st.integers(low, high // 2))]
    while 2 * levels[-1] <= high and (len(levels) < 2 or draw(st.booleans())):
        levels.append(draw(st.integers(2 * levels[-1], high)))
    return draw(st.permutations(levels))  # the run sorts them


@st.composite
def _entry_configs(draw):
    name = draw(st.sampled_from(sorted(suite.CATALOG)))
    params = {}
    for key, (default, low, high) in suite.CATALOG[name].params.items():
        if isinstance(default, tuple):
            params[key] = draw(_ladders(low, high))
        elif isinstance(default, float):
            params[key] = draw(st.floats(low, high))
        else:
            params[key] = draw(st.integers(low, high))
    return name, params, draw(st.integers(0, 999))


@given(_entry_configs())
@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES)
def test_every_drawn_config_passes_at_refine_0(case):
    name, params, seed = case
    cfg = {"schema_version": 1, "seed": seed, "suite": [{"name": name, "params": params}]}
    assert cli.config_errors(cfg) == []
    rows, _ = suite.run_entry(name, seed, 0, params)
    assert rows and all(r.passed for r in rows), [r for r in rows if not r.passed]
