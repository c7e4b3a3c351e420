"""Every check reports through one shape: ``reports.Report``.

Each producer below is run once on a small input chosen to give a known
verdict, passing or not, and ``passed`` must follow that verdict.  The
producers that only measure report MEASURED, which never passes.
"""

import math

import numpy as np
import pytest

from sobolev_banach import banach, calculus, gridfn, theorems
from sobolev_banach import counterexamples as cx
from sobolev_banach.reports import Report

HIL2 = banach.SpaceDescriptor("Hilbert", 2)
BOX1 = gridfn.unit_box(1)
PASSING = {"PASS", "BOUNDED", "STABLE", "CONFIRMS_FAILURE", "MEMBER"}


def _smooth(n=64):
    return gridfn.sample(
        BOX1, gridfn.GridSpec((n,)), HIL2,
        lambda x: np.array([2.0 + math.sin(x[0]), math.cos(x[0])]),
    )


def _zero_trace(n=64):
    return gridfn.sample(
        BOX1, gridfn.GridSpec((n,)), HIL2,
        lambda x: math.sin(math.pi * x[0]) * np.array([1.0, 0.5]),
    )


def _smooth_lattice():
    """The values of ``_smooth`` in the lattice L^2 of two points."""
    u = _smooth()
    return gridfn.GridFunction(
        u.domain, u.grid, banach.SpaceDescriptor("GridLr", 2, 2.0), u.values
    )


def _jump():
    return gridfn.from_scalar(
        BOX1, gridfn.GridSpec((256,)), (np.arange(256) >= 128).astype(float)
    )


def _smooth_sequence():
    u = _smooth(128)
    t = u.grid.axes(u.domain)[0]
    pert = np.stack([np.sin(3 * math.pi * t), np.cos(2 * math.pi * t)], axis=-1)
    seq = [u.like(u.values + pert / 2.0**k) for k in range(1, 5)]
    return theorems.norm_map_continuity_check(seq, u)


def _kink_sequence():
    """u = (t - 1/2, 0) shifted by (2^-k, 0): the kink of |u| moves by 2^-k,
    so the scalar W-distance falls like the square root of the vector one."""
    u = _smooth(128)
    t = u.grid.axes(u.domain)[0]
    u = u.like(np.stack([t - 0.5, 0.0 * t], axis=-1))
    seq = [u.like(u.values + np.array([2.0**-k, 0.0])) for k in range(1, 5)]
    return theorems.norm_map_continuity_check(seq, u)


def _bump_levels(widths, members=6, n=256):
    """Unit-L^2 bumps at spread-out centres, one family per width."""
    grid = gridfn.GridSpec((n,))
    t = grid.axes(BOX1)[0]
    levels = []
    for width in widths:
        fam = []
        for c in (np.arange(members) + 0.5) / members:
            s = (t - c) / width
            g = gridfn._bump(s * s)
            fam.append(gridfn.from_scalar(BOX1, grid, g / math.sqrt(np.mean(g * g))))
        levels.append(fam)
    return levels


def _stable_probe():
    """Three copies of one W-unit-bounded member per level: nothing to grow."""
    small = [_zero_trace(n) for n in (32, 64)]
    levels = [[u.like(0.1 * u.values)] * 3 for u in small]
    return theorems.aubin_lions_probe(levels, [HIL2] * 2)


CASES = {
    "dq_criterion smooth": (lambda: calculus.dq_criterion(_smooth(), 2.0), "BOUNDED"),
    "dq_criterion indicator": (lambda: calculus.dq_criterion(_jump(), 2.0), "DIVERGENT"),
    "compose_lipschitz": (
        lambda: calculus.compose_lipschitz(
            calculus.norm_lipschitz_map(HIL2), _smooth(), np.random.default_rng(0)
        )[1],
        "PASS",
    ),
    "stampacchia_check": (
        lambda: calculus.stampacchia_check(
            gridfn.GridFunction(
                BOX1, gridfn.GridSpec((32,)), banach.SpaceDescriptor("GridLr", 2, 2.0),
                np.stack([np.linspace(1.0, 2.0, 32), np.zeros(32)], axis=-1),
            ),
            np.array([0.0, 1.0]),
        ),
        "PASS",
    ),
    "product_rule_check": (
        lambda: calculus.product_rule_check(
            _smooth(), gridfn.from_scalar(BOX1, gridfn.GridSpec((64,)), np.ones(64))
        ),
        "MEASURED",
    ),
    "norm_derivative_field": (
        lambda: calculus.norm_derivative_field(_smooth()).report, "MEASURED"
    ),
    "abs_derivative_field": (
        lambda: calculus.abs_derivative_field(_smooth_lattice()).report, "MEASURED"
    ),
    "pos_derivative_field": (
        lambda: calculus.pos_derivative_field(_smooth_lattice()).report, "MEASURED"
    ),
    "gateaux_chain_field": (
        lambda: calculus.gateaux_chain_field(
            calculus.norm_lipschitz_map(HIL2), _smooth()
        ).report,
        "MEASURED",
    ),
    "quotient_rule_field": (
        lambda: calculus.quotient_rule_field(
            _smooth(), gridfn.from_scalar(BOX1, gridfn.GridSpec((64,)), np.ones(64))
        )[1].report,
        "MEASURED",
    ),
    "embedding_check": (lambda: theorems.embedding_check(_smooth()), "PASS"),
    "poincare_check": (lambda: theorems.poincare_check(_zero_trace()), "PASS"),
    "w0_membership member": (lambda: theorems.w0_membership(_zero_trace()), "MEMBER"),
    "w0_membership non-member": (lambda: theorems.w0_membership(_smooth()), "NOT_MEMBER"),
    "norm_map_continuity order 0.9": (_smooth_sequence, "PASS"),
    "norm_map_continuity kink": (_kink_sequence, "FAIL"),
    "aubin_lions_probe certified": (_stable_probe, "STABLE"),
    "aubin_lions_probe shrinking bumps": (
        lambda: theorems.aubin_lions_probe(_bump_levels((4.0, 0.25, 1.0 / 16.0)), None),
        "GROWING",
    ),
    "tensor_extend": (lambda: theorems.tensor_extend(np.eye(3) * 2.0, 2), "PASS"),
    "c0_sine_witness": (
        cx.c0_sine_witness, "CONFIRMS_FAILURE",
    ),
    "_finish out of band": (
        lambda: cx._finish("x", [(1.0, 2.0, 1.0, 2.0)], (0.9, 1.1), {}), "UNEXPECTED"
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_producers_return_one_report_shape(case):
    producer, verdict = CASES[case]
    rep = producer()
    assert type(rep) is Report
    assert rep.verdict == verdict
    assert rep.passed == (verdict in PASSING)
    assert isinstance(rep.rows, list) and isinstance(rep.details, dict)


def test_field_results_flag_per_direction():
    u = gridfn.sample(
        gridfn.unit_box(2), gridfn.GridSpec((8, 8)), HIL2,
        lambda x: np.array([1.0 + x[0], x[1] - 0.5]),
    )
    one = gridfn.from_scalar(u.domain, u.grid, np.ones((8, 8)))
    lattice = banach.SpaceDescriptor("GridLr", 2, 2.0)
    results = [
        calculus.norm_derivative_field(u),
        calculus.abs_derivative_field(gridfn.GridFunction(u.domain, u.grid, lattice, u.values)),
        calculus.gateaux_chain_field(calculus.norm_lipschitz_map(HIL2), u),
        calculus.quotient_rule_field(u, one)[1],
    ]
    for res in results:
        assert isinstance(res, calculus.FieldResult)
        assert len(res.fields) == len(res.flags) == 2
        assert all(f.dtype == bool and f.shape == (8, 8) for f in res.flags)
        # a field records measurements, not a claim, so it never passes
        assert type(res.report) is Report and res.report.verdict == "MEASURED"
        assert not res.report.passed
