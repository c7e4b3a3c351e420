"""Quantitative witnesses for the negative results measure what they claim."""

import math
import tracemalloc

import pytest

from sobolev_banach import counterexamples as cx, suite
from sobolev_banach.errors import ContractError


def test_indicator_witness_exact_ratios():
    # the value grid matches the time grid, so measured == oracle exactly
    w = cx.indicator_path_witness(r=2.0, n=128)
    assert w.passed
    for h, measured, oracle, ratio in w.rows:
        assert oracle == h ** (-0.5)
        assert ratio == pytest.approx(1.0, abs=1e-12)
    assert w.details["criterion_verdict"] == "DIVERGENT"
    assert abs(w.details["criterion_slope"] - (-0.5)) <= 0.05
    assert w.details["pairing_verdict"] == "BOUNDED"


def test_indicator_witness_exponent_family():
    # slope tracks 1/r - 1 across exponents; r = 1 is the bounded boundary case
    for r, want in ((4.0, -0.75), (math.inf, -1.0)):
        w = cx.indicator_path_witness(r=r, n=128)
        assert w.passed
        assert abs(w.details["criterion_slope"] - want) <= 0.05
    w1 = cx.indicator_path_witness(r=1.0, n=128)
    assert w1.passed
    assert w1.details["criterion_verdict"] == "BOUNDED"
    assert "Radon-Nikodym" in w1.details["interpretation"]


def test_indicator_witness_validation():
    with pytest.raises(ContractError):
        cx.indicator_path_witness(r=0.5, n=256)
    with pytest.raises(ContractError, match="grid resolution"):
        cx.indicator_path_witness(r=2.0, n=32)  # the lag 32 needs n > 32


def test_witness_table_band_enforcement():
    # verdicts come from _finish in real witnesses; a ratio of 2 with the
    # 10% band through that gate is UNEXPECTED, a ratio of 1 confirms
    again = cx._finish("x", [(1.0, 2.0, 1.0, 2.0)], (0.9, 1.1), {})
    assert again.verdict == "UNEXPECTED"
    assert not again.passed
    assert cx._finish("x", [(1.0, 1.0, 1.0, 1.0)], (0.9, 1.1), {}).passed


def test_c0_witness_tail_never_decays():
    w = cx.c0_sine_witness()
    assert w.passed
    assert all(measured >= 0.99 for _, measured, _, _ in w.rows)
    assert [int(p) for p, *_ in w.rows] == [100, 400, 1600, 6400, 10000]
    assert w.details["band"] == (1.0, 1.1)
    assert w.details["path_lipschitz_constant"] <= 1.0 + 1e-6
    assert w.details["pairing_quotient_bound"] <= 1.0
    assert w.details["coordinatewise_limit_error"] <= 1e-4


def test_ck_witness_oracle_is_sharp():
    w = cx.ck_pospart_witness()
    assert w.passed
    d_star = w.details["first_sample_gap"]
    for h, measured, oracle, ratio in w.rows:
        assert oracle == 1.0 - d_star / h
        assert ratio == pytest.approx(1.0, abs=1e-12)
    # at the finest lag the quotient is still a unit-size distance away
    assert w.details["distance_at_finest"] >= 0.98
    assert w.details["l2_contrast_error"] <= 0.05
    assert w.details["sup_norm_raises_order_continuity"] is True


def test_ck_witness_peak_memory():
    """The L^2 contrast runs a block of time rows at a time; a contrast
    formed over the whole 1000 x 2000 grid holds two 16 MB arrays and
    exceeds the bound."""
    tracemalloc.start()
    try:
        cx.ck_pospart_witness()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _traced_peak(run):
    """tracemalloc's peak while ``run()`` runs, after one untraced call
    has made whatever a first call makes once."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_indicator_witness_never_forms_the_path():
    # the n x n path is 8 MiB at n = 1024; its rows and its lags' bands are
    # written one node block (256 KiB) at a time
    assert _traced_peak(lambda: cx.indicator_path_witness(2.0, 1024)) < 2 * 2**20


def test_ck_witness_entry_peak_memory():
    # the lag quotients run over blocks of the sample points: whole, each
    # lag's five temporaries of 0.8 MB took the entry to about 5 MB
    assert _traced_peak(lambda: suite.run_entry("witness_ck_pospart", 42)) < 2.5e6
