"""Acceptance gate: the eleven primary checks, one pass/fail line each.

Every test pulls the measured values out of the verification-suite entries
(seed 42), asserts the stated tolerances directly, and prints a single
``[A-k] ... PASS``/``FAIL`` line with the key numbers.
"""

import time

from sobolev_banach import cli, counterexamples as cx, suite

SEED = 42


def _rows(name):
    rows, details = suite.run_entry(name, SEED)
    return {r.metric: r.value for r in rows}, details


def _line(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_a01_norm_chain_rule_decay():
    t0 = time.perf_counter()
    vals, det = _rows("norm_chain_rule")
    elapsed = time.perf_counter() - t0
    ok = (
        vals["fitted_order"] >= 0.9
        and det["ladder"] == [32, 64, 128, 256]
        and elapsed < 120.0
    )
    _line(
        "[A-1] norm chain rule L1 decay",
        ok,
        f"order={vals['fitted_order']:.3f} {elapsed:.1f}s",
    )


def test_a02_norm_estimate_inequality():
    vals, _ = _rows("norm_gradient_bound")
    ok = (
        vals["nodewise_margin_rel"] <= 1e-12
        and vals["circle_lhs_max"] <= 1e-10
        and vals["circle_rhs_gap"] <= 0.1
    )
    _line(
        "[A-2] |D_j|u|| <= |D_j u| nodewise + circle gap witness",
        ok,
        f"margin={vals['nodewise_margin_rel']:.2e} "
        f"circle_lhs={vals['circle_lhs_max']:.2e} "
        f"rhs_gap={vals['circle_rhs_gap']:.2e}",
    )


def test_a03_lattice_chain_rules():
    vals, _ = _rows("lattice_chain_rules")
    ok = (
        vals["abs_fitted_order"] >= 0.9
        and vals["pos_fitted_order"] >= 0.9
        and vals["pos_half_identity_exact"] == 1.0
        and vals["sup_norm_rejected"] == 1.0
    )
    _line(
        "[A-3] modulus/positive-part rules + bit-exact pos identity",
        ok,
        f"abs_order={vals['abs_fitted_order']:.3f} "
        f"pos_order={vals['pos_fitted_order']:.3f} identity_exact=yes",
    )


def test_a04_difference_quotient_criterion():
    smooth, _ = _rows("dq_criterion")
    ind, det = _rows("dq_criterion_indicator")
    ok = (
        smooth["c_est_fitted_order"] >= 1.0
        and smooth["all_bounded"] == 1.0
        and ind["slope_gap_r2"] <= 0.05
        and ind["divergent_r2"] == 1.0
    )
    _line(
        "[A-4] shift-quotient criterion: C1 order >= 1, indicator diverges",
        ok,
        f"c_est_order={smooth['c_est_fitted_order']:.3f} "
        f"indicator_slope_gap={ind['slope_gap_r2']:.4f}",
    )


def test_a05_poincare_eigenvalue():
    t0 = time.perf_counter()
    vals, _ = _rows("poincare_eigenvalue")
    elapsed = time.perf_counter() - t0
    ok = (
        vals["eigenvalue_rel_gap"] <= 0.01
        and vals["min_ratio_over_constant"] >= 0.99
        and elapsed < 10.0
    )
    _line(
        "[A-5] Poincare: n=512 eigenvalue vs pi^2, member ratios",
        ok,
        f"eig_gap={vals['eigenvalue_rel_gap']:.2e} "
        f"min_ratio={vals['min_ratio_over_constant']:.4f} {elapsed:.1f}s",
    )


def test_a06_w0_equivalences():
    vals, _ = _rows("w0_equivalences")
    ok = vals["verdict_agreement"] == 20.0 and vals["boundary_decay_order"] >= 1.9
    _line(
        "[A-6] zero-trace equivalences agree 20/20, boundary decay",
        ok,
        f"agreement={int(vals['verdict_agreement'])}/20 "
        f"decay_order={vals['boundary_decay_order']:.2f}",
    )


def test_a07_morrey_d1():
    vals, _ = _rows("morrey_d1")
    ok = (
        vals["worst_ratio"] <= 1.0
        and vals["sqrt_profile_constant_gap"] <= 0.05
    )
    _line(
        "[A-7] Morrey d=1 p=2: beta <= |u|_W, sqrt profile near-equality",
        ok,
        f"worst_ratio={vals['worst_ratio']:.4f} sqrt_gap={vals['sqrt_profile_constant_gap']:.4f}",
    )


def test_a08_aubin_lions_probe():
    t0 = time.perf_counter()
    compact, _ = _rows("aubin_lions_compact")
    control, det = _rows("aubin_lions_control")
    elapsed = time.perf_counter() - t0
    ok = (
        compact["max_count_growth"] <= 2.0
        and control["n_eps01_growth"] >= 4.0
        and det["eps"][1] == 0.1
        and elapsed < 180.0
    )
    _line(
        "[A-8] Aubin-Lions: compact family stable, control family grows",
        ok,
        f"compact_growth={compact['max_count_growth']:.2f}x "
        f"control_growth={control['n_eps01_growth']:.0f}x {elapsed:.1f}s",
    )


def test_a09_tensor_extension():
    vals, det = _rows("tensor_extension_norms")
    ok = (
        det["matrices"] == 50
        and vals["max_norm_gap"] <= 1e-8
        and vals["tensor_identity_exact"] == 1.0
    )
    _line(
        "[A-9] tensor extension norm equality + exact tensor identity",
        ok,
        f"50 matrices gap={vals['max_norm_gap']:.2e} identity_exact=yes",
    )


def test_a10_counterexample_witnesses():
    ind, det = _rows("witness_indicator_path")
    slopes_ok = all(ind[f"slope_gap_{tag}"] <= 0.05 for tag in ("r2", "r4", "rinf"))
    confirms_ok = all(ind[f"confirms_{tag}"] == 1.0 for tag in ("r2", "r4", "rinf"))

    c0 = cx.c0_sine_witness()
    c0_ok = (
        c0.passed
        and max(int(p) for p, *_ in c0.rows) == 10_000
        and all(measured >= 0.99 for _, measured, _, _ in c0.rows)
    )

    ck = cx.ck_pospart_witness()
    finest = min(ck.rows, key=lambda r: r[0])
    ck_ok = (
        ck.passed
        and finest[0] == 1e-3
        and finest[1] >= 0.98
        and ck.details["l2_contrast_error"] <= 0.05
    )
    ok = slopes_ok and confirms_ok and c0_ok and ck_ok
    _line(
        "[A-10] witnesses: indicator slopes, c0 tails, C(K) pos-part",
        ok,
        f"slopes<=0.05 c0_tail={min(m for _, m, _, _ in c0.rows):.4f} "
        f"ck_dist={finest[1]:.4f} contrast={ck.details['l2_contrast_error']:.4f} "
        f"all_confirm={confirms_ok and c0.passed and ck.passed}",
    )


def test_a11_determinism_and_runtime(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"schema_version": 1}', encoding="utf-8")
    t0 = time.perf_counter()
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli.main(
            ["run", str(cfg), "--out", str(out), "--seed", str(SEED)]
        )
        assert code == cli.EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1] and elapsed < 600.0
    _line(
        "[A-11] determinism: two seed-42 full runs byte-identical",
        ok,
        f"identical={outs[0] == outs[1]} "
        f"{len(suite.CATALOG)} entries twice in {elapsed:.1f}s",
    )
