"""Difference-quotient criterion, Lipschitz composition, chain rules."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_banach import banach, calculus, counterexamples as cx, gridfn, suite, theorems
from sobolev_banach.errors import (
    CapabilityError,
    ContractError,
    DimensionMismatchError,
    OrderContinuityError,
)

HIL2 = banach.SpaceDescriptor("Hilbert", 2)
BOX1 = gridfn.unit_box(1)


def _sample1(n, rule, space=HIL2):
    return gridfn.sample(BOX1, gridfn.GridSpec((n,)), space, rule)


def test_dq_criterion_affine_closed_form():
    # affine u: the k-step quotient is |b| * sqrt((n-k) h) at p=2, so the
    # largest quotient comes from k=1 and the fit slope is positive
    n, b = 64, np.array([2.0, -1.0])
    u = _sample1(n, lambda x: b * x[0])
    rep = calculus.dq_criterion(u, 2.0, steps_list=(1, 2, 4, 8))
    nb = math.hypot(*b)
    for j, k, hh, q in rep.rows:
        assert j == 0 and hh == pytest.approx(k / n, rel=1e-15)
        assert q == pytest.approx(nb * math.sqrt((n - k) / n), rel=1e-13)
    assert rep.details["c_est"] == pytest.approx(nb * math.sqrt((n - 1) / n), rel=1e-13)
    assert rep.verdict == "BOUNDED" and rep.passed
    # the (n-k) window shrinks mildly with k: slope is a hair below zero,
    # nowhere near the divergence threshold
    assert -0.05 < rep.details["slope"] <= 0.0


def test_dq_criterion_indicator_diverges():
    u = gridfn.from_scalar(
        BOX1, gridfn.GridSpec((256,)), (np.arange(256) >= 128).astype(float)
    )
    rep = calculus.dq_criterion(u, 2.0, steps_list=(1, 2, 4, 8, 16))
    assert rep.verdict == "DIVERGENT" and not rep.passed
    assert rep.details["slope"] == pytest.approx(-0.5, abs=1e-10)
    assert rep.details["residual"] >= 0.999
    # the same jump is summable in L^1: quotients are constant there
    rep1 = calculus.dq_criterion(u, 1.0, steps_list=(1, 2, 4, 8, 16))
    assert rep1.verdict == "BOUNDED"
    assert abs(rep1.details["slope"]) < 1e-10


def test_dq_criterion_constant_and_validation():
    u = _sample1(32, lambda x: np.array([1.0, 2.0]))
    rep = calculus.dq_criterion(u, 2.0)
    assert rep.details["c_est"] == 0.0 and rep.verdict == "BOUNDED"
    with pytest.raises(ValueError):
        calculus.dq_criterion(u, 2.0, steps_list=(0, 1))
    # oversized shifts are dropped, not an error
    rep2 = calculus.dq_criterion(u, 2.0, steps_list=(1, 1000))
    assert [r[1] for r in rep2.rows] == [1]


def test_validate_lipschitz_catches_understated_constant():
    rng = np.random.default_rng(30)
    u = _sample1(64, lambda x: np.array([math.sin(x[0]), x[0]]))
    doubler = calculus.LipschitzMap(
        rule=lambda X: 2.0 * X,
        source=HIL2,
        target=HIL2,
        L=1.0,
        name="doubler",
    )
    with pytest.raises(ContractError, match="doubler"):
        calculus.validate_lipschitz(doubler, u, rng)
    doubler_honest = calculus.LipschitzMap(
        rule=doubler.rule, source=HIL2, target=HIL2, L=2.0,
    )
    q = calculus.validate_lipschitz(doubler_honest, u, rng)
    assert q <= 2.0 * (1.0 + 1e-9)


def test_compose_with_norm_map():
    u = _sample1(128, lambda x: np.array([2.0 + math.sin(x[0]), math.cos(x[0])]))
    F = calculus.norm_lipschitz_map(HIL2)
    v, rep = calculus.compose_lipschitz(F, u, np.random.default_rng(31))
    assert rep.passed
    assert v.space.dim == 1
    assert np.allclose(v.values[:, 0], gridfn.pointwise_norms(u))
    excess = dict(rep.rows)["max_excess"]
    assert excess <= rep.details["tolerance"]
    with pytest.raises(DimensionMismatchError):
        calculus.compose_lipschitz(
            F, gridfn.from_scalar(BOX1, u.grid, np.ones(128)), np.random.default_rng(31)
        )


def test_compose_lipschitz_leaves_out_the_boundary_ring():
    # rough values: the one-sided stencil at the first node gives the norm
    # map a quotient 5 above |D u| there, which is no Lipschitz violation
    values = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.5, 0.3], [0.2, 0.1]])
    u = gridfn.GridFunction(BOX1, gridfn.GridSpec((5,)), HIL2, values)
    _, rep = calculus.compose_lipschitz(
        calculus.norm_lipschitz_map(HIL2), u, np.random.default_rng(0)
    )
    assert rep.passed
    assert dict(rep.rows)["max_excess"] <= rep.details["tolerance"]


def test_compose_lipschitz_of_a_constant_function():
    # no sampled pair has distinct values, so the sampled quotient is 0.0
    u = gridfn.GridFunction(BOX1, gridfn.GridSpec((8,)), HIL2, np.ones((8, 2)))
    F = calculus.norm_lipschitz_map(HIL2)
    assert calculus.validate_lipschitz(F, u, np.random.default_rng(0)) == 0.0
    v, rep = calculus.compose_lipschitz(F, u, np.random.default_rng(0))
    assert rep.passed and dict(rep.rows)["max_excess"] == 0.0
    assert np.array_equal(v.values, np.full((8, 1), math.sqrt(2.0)))


PROPERTIES = dict(derandomize=True, max_examples=100, deadline=None)
LIPSCHITZ_SPACES = [
    banach.SpaceDescriptor("Hilbert", 3),
    banach.SpaceDescriptor("FiniteLr", 4, exponent=1.0),
    banach.SpaceDescriptor("FiniteLr", 3, exponent=3.5),
    banach.SpaceDescriptor("SampledSup", 5),
    banach.SpaceDescriptor("GridLr", 4, exponent=2.5, weights=[0.1, 0.2, 0.3, 0.4]),
]


@st.composite
def lipschitz_cases(draw):
    """A map F (the norm, or on a Hilbert source a random linear contraction
    with L its operator norm), rough node values u with zero and repeated
    nodes, and a seed for the Lipschitz validation."""
    space = draw(st.sampled_from(LIPSCHITZ_SPACES))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3, 12 if d == 1 else 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n,) * d + (space.dim,)) * 10.0 ** draw(st.integers(-3, 3))
    flat = values.reshape(-1, space.dim)
    flat[rng.random(len(flat)) < 0.2] = 0.0  # the norm's kink
    flat[rng.random(len(flat)) < 0.2] = flat[0]  # equal neighbours: zero quotients
    u = gridfn.GridFunction(gridfn.unit_box(d), gridfn.GridSpec((n,) * d), space, values)
    if space.kind == "Hilbert" and draw(st.booleans()):
        A = rng.standard_normal((2, space.dim))
        A *= draw(st.floats(0.1, 1.0)) / np.linalg.norm(A, 2)
        F = calculus.LipschitzMap(
            rule=lambda X: X @ A.T, source=space, target=banach.SpaceDescriptor("Hilbert", 2),
            L=float(np.linalg.norm(A, 2)), name="contraction",
        )
    else:
        F = calculus.norm_lipschitz_map(space)
    return F, u, seed


@given(lipschitz_cases())
@settings(**PROPERTIES)
def test_composed_quotients_bounded_by_L_times_quotients(case):
    # |D_j F(u)| <= L |D_j u| node by node, up to rounding: a central
    # quotient is a difference of two values over 2h.  The boundary ring's
    # one-sided stencil combines three values, so the bound does not hold
    # there for rough u, and the ring is left out.
    F, u, seed = case
    v, rep = calculus.compose_lipschitz(F, u, np.random.default_rng(seed))
    assert rep.passed
    inner = gridfn.interior_mask(u.grid)
    h = u.grid.spacing(u.domain)
    slack = 1e-12 * (1.0 + float(np.max(gridfn.pointwise_norms(u))))
    for j, (dv, du) in enumerate(zip(gridfn.finite_difference(v), gridfn.finite_difference(u))):
        lhs = np.asarray(banach.norm(F.target, dv.values))[inner]
        rhs = np.asarray(banach.norm(u.space, du.values))[inner]
        assert np.all(lhs <= F.L * rhs * (1.0 + 1e-12) + slack / h[j])


def test_gateaux_chain_field_smooth_case():
    # |u(t)| is smooth when u stays away from zero: both one-sided fields
    # agree with each other and with the direct quotients of |u|
    u = _sample1(256, lambda x: np.array([1.0 + x[0], x[0] ** 2]))
    F = calculus.norm_lipschitz_map(HIL2)
    cf = calculus.gateaux_chain_field(F, u)
    info = cf.report.details["directions"][0]
    assert info["nonunique_fraction"] == 0.0
    assert info["pm_gap_lp"] <= 1e-12
    assert max(info["err_plus"], info["err_minus"]) <= 1e-3
    t = u.grid.axes(u.domain)[0]
    exact = (1.0 + t + 2.0 * t**3) / np.sqrt((1.0 + t) ** 2 + t**4)
    assert np.allclose(cf.fields[0].values[:, 0], exact, atol=1e-3)
    assert not cf.flags[0].any()


def test_gateaux_chain_needs_onesided_data():
    u = _sample1(16, lambda x: np.array([1.0, 0.0]))
    bare = calculus.LipschitzMap(
        rule=lambda X: X, source=HIL2, target=HIL2, L=1.0
    )
    with pytest.raises(CapabilityError):
        calculus.gateaux_chain_field(bare, u)


def test_norm_derivative_field_constant_norm():
    # a curve on a sphere has constant pointwise norm; the chain-rule field
    # must vanish at every unflagged node
    n = 128
    u = _sample1(
        n,
        lambda x: np.array(
            [math.cos(2 * math.pi * x[0]), math.sin(2 * math.pi * x[0])]
        ),
    )
    nd = calculus.norm_derivative_field(u)
    vals = nd.fields[0].values[:, 0]
    assert not nd.flags[0].any()
    # central chords of a circle are exactly tangent, so interior values sit
    # at rounding level; the one-sided boundary stencils leave O(h^2)
    assert np.max(np.abs(vals[1:-1])) <= 1e-12
    assert np.max(np.abs(vals)) <= 1e-3
    assert nd.report.details["l1_err_total"] <= 1e-12
    # |D_j |u|| <= |D_j u|_X with nothing to spare here
    dnorm = banach.norm(HIL2, gridfn.finite_difference(u)[0].values)
    assert np.max((np.abs(vals) - dnorm) / (1.0 + dnorm)) <= 1e-12


def test_norm_derivative_field_flags_zero_crossing():
    n = 15  # odd cell count puts a node exactly at t = 0.5
    u = _sample1(n, lambda x: np.array([x[0] - 0.5, 0.0]))
    nd = calculus.norm_derivative_field(u)
    flags = nd.flags[0].ravel()
    mid = n // 2
    assert flags[mid]
    assert nd.fields[0].values[mid, 0] == 0.0  # exact zero convention
    # away from the crossing the field is sign(t - 1/2)
    vals = nd.fields[0].values[:, 0]
    assert np.allclose(vals[:3], -1.0, atol=1e-12)
    assert np.allclose(vals[-3:], 1.0, atol=1e-12)


def _peak_over_input(producer, exponent):
    """tracemalloc's peak while ``producer`` runs on a 256 x 256 GridLr
    member, over the member's size (numpy reports its buffers)."""
    space = banach.SpaceDescriptor("GridLr", 4, exponent=exponent)
    rng = np.random.default_rng(0)
    u = gridfn.GridFunction(
        gridfn.unit_box(2), gridfn.GridSpec((256, 256)), space, rng.normal(size=(256, 256, 4))
    )
    tracemalloc.start()
    try:
        producer(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / u.values.nbytes


@pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0])
def test_norm_derivative_field_memory_stays_near_its_input(exponent):
    # the norms, differences, pairings and comparison run one node block
    # at a time, so no full-size norm or derivative array is made (measured:
    # 1.77 times the input, the fields and flags included)
    assert _peak_over_input(calculus.norm_derivative_field, exponent) < 2.0


@pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0])
def test_norm_derivative_report_memory_stays_near_its_input(exponent):
    # the report keeps no field: its only full-size arrays are each axis's
    # kept errors (measured: 1.28 times the input)
    assert _peak_over_input(calculus.norm_derivative_report, exponent) < 1.49


def test_norm_derivative_report_of_a_blueprint_never_holds_its_member():
    # a blueprint's member is realized one window of rows at a time, so the
    # peak (measured: 6.2 MB, of which the two axes' kept errors are 4.2 MB)
    # stays below the 8 MiB that the 512 x 512 GridLr(4) member would take
    space = banach.SpaceDescriptor("GridLr", 4, exponent=2.0)
    rng = np.random.default_rng(0)
    bp = suite.SampleBlueprint(
        space, 2, rng.normal(size=4), rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 2))
    )
    member_bytes = 512 * 512 * space.dim * 8
    tracemalloc.start()
    try:
        report = calculus.norm_derivative_report(bp, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.details["l1_err_total"] > 0.0
    assert peak < member_bytes


def test_lattice_fields_sign_rule_and_pos_identity():
    def kinked(n):
        return gridfn.from_scalar(
            BOX1, gridfn.GridSpec((n,)), np.linspace(0, 1, n) - 0.4821
        )

    u = kinked(64)
    ab = calculus.abs_derivative_field(u)
    po = calculus.pos_derivative_field(u)
    du = gridfn.finite_difference(u)
    U = u.values
    # the positive part is the average of modulus and identity wherever u != 0
    nz = U != 0.0
    lhs = po.fields[0].values[nz]
    rhs = 0.5 * (ab.fields[0].values[nz] + du[0].values[nz])
    assert np.array_equal(lhs, rhs)
    # the formula disagrees with direct quotients of |u| only inside the
    # stencil of the sign change, so the L^1 defect shrinks like h
    err64 = ab.report.details["l1_err_total"]
    err256 = calculus.abs_derivative_field(kinked(256)).report.details[
        "l1_err_total"
    ]
    assert err256 < 0.5 * err64


def test_lattice_fields_flag_exact_zeros():
    n = 15  # node 7 sits exactly on the zero of t - 1/2
    t = (np.arange(n) + 0.5) / n
    u = gridfn.from_scalar(BOX1, gridfn.GridSpec((n,)), t - 0.5)
    ab = calculus.abs_derivative_field(u)
    flags = ab.flags[0].ravel()
    assert flags[n // 2] and flags.sum() == 1
    assert np.allclose(ab.fields[0].values[:3, 0], -1.0, atol=1e-12)
    assert np.allclose(ab.fields[0].values[-3:, 0], 1.0, atol=1e-12)


LATTICE_KINDS = [space for _, space in suite.KIND_SPECS
                 if space.lattice_capable and space.order_continuous]


@st.composite
def lattice_members(draw):
    """A member of an order-continuous lattice kind at d = 1 or 2, with some
    coordinates set to exact zeros (+0.0 or -0.0)."""
    space = draw(st.sampled_from(LATTICE_KINDS))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3, 40) if d == 1 else st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bp = suite.SampleBlueprint(space, d, rng.normal(size=space.dim),
                               rng.normal(size=(space.dim, 2, d)), rng.normal(size=(space.dim, 2, d)))
    u = bp.realize(n)
    flat = u.values.reshape(-1)
    flat[rng.integers(flat.size, size=draw(st.integers(0, 4)))] = draw(st.sampled_from([0.0, -0.0]))
    return u


@given(lattice_members())
@settings(derandomize=True, max_examples=25, deadline=None)
def test_lattice_fields_are_the_midpoints_of_the_coordinatewise_sides(u):
    # the one-sided derivatives of |.| at x along h are sign(x) h where
    # x != 0 and +-|h| at 0, those of (.)+ are h, 0 or max/min(h, 0): at a
    # node with no zero coordinate the fields are their midpoints, bit for
    # bit (sign bits included), as the paper's chain rule a.e. says
    X = u.values
    off_zero = (X != 0.0).all(axis=-1)
    ab, po = calculus.abs_derivative_field(u), calculus.pos_derivative_field(u)
    for j, D in enumerate(gridfn.finite_difference(u)):
        H = D.values
        sides = {
            "abs": (np.where(X != 0.0, np.sign(X) * H, np.abs(H)),
                    np.where(X != 0.0, np.sign(X) * H, -np.abs(H))),
            "pos": (np.where(X > 0.0, H, np.where(X < 0.0, 0.0, np.maximum(H, 0.0))),
                    np.where(X > 0.0, H, np.where(X < 0.0, 0.0, np.minimum(H, 0.0)))),
        }
        for kind, res in (("abs", ab), ("pos", po)):
            plus, minus = sides[kind]
            mid, field = ((plus + minus) * 0.5)[off_zero], res.fields[j].values[off_zero]
            assert np.array_equal(field, mid)
            assert np.array_equal(np.signbit(field), np.signbit(mid))


def test_lattice_fields_need_order_continuity():
    sup = banach.SpaceDescriptor("SampledSup", 2)
    u = gridfn.GridFunction(
        BOX1, gridfn.GridSpec((8,)), sup, np.ones((8, 2))
    )
    with pytest.raises(OrderContinuityError):
        calculus.abs_derivative_field(u)
    hil = _sample1(8, lambda x: np.array([1.0, 1.0]))
    with pytest.raises(CapabilityError):
        calculus.pos_derivative_field(hil)


def test_stampacchia_disjoint_supports():
    sp = banach.SpaceDescriptor("GridLr", 4, 2.0)
    n = 64
    t = (np.arange(n) + 0.5) / n
    vals = np.zeros((n, 4))
    vals[:, 0] = np.sin(math.pi * t)
    vals[:, 1] = np.cos(2 * math.pi * t)
    u = gridfn.GridFunction(BOX1, gridfn.GridSpec((n,)), sp, vals)
    w = np.array([0.0, 0.0, 1.0, 2.0])
    rep = calculus.stampacchia_check(u, w)
    assert rep.passed
    assert dict(rep.rows)["derivative_max"] == 0.0
    # overlapping supports are rejected up front
    vals2 = vals.copy()
    vals2[n // 2, 2] = 1.0
    u2 = gridfn.GridFunction(BOX1, gridfn.GridSpec((n,)), sp, vals2)
    with pytest.raises(ContractError, match="not zero"):
        calculus.stampacchia_check(u2, w)
    with pytest.raises(ContractError):
        calculus.stampacchia_check(u, -w)
    with pytest.raises(CapabilityError):
        calculus.stampacchia_check(_sample1(8, lambda x: np.array([1.0, 0.0])), w[:2])


def test_quotient_rule_radial_retraction():
    rule = lambda x: np.array([2.0 + math.sin(x[0]), math.cos(x[0])])
    errs = []
    for n in (64, 256):
        u = _sample1(n, rule)
        one = gridfn.from_scalar(BOX1, u.grid, np.ones(n))
        v, qr = calculus.quotient_rule_field(u, one)
        # |u| >= 1 everywhere so v = u/|u| lands on the unit sphere
        assert np.allclose(gridfn.pointwise_norms(v), 1.0, atol=1e-12)
        assert qr.report.details["zero_fraction"] == 0.0
        errs.append(qr.report.details["l1_err_total"])
    assert errs[1] < 0.25 * errs[0]


def test_quotient_rule_validation():
    u = _sample1(16, lambda x: np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        calculus.quotient_rule_field(u, u)
    neg = gridfn.from_scalar(BOX1, u.grid, -np.ones(16))
    with pytest.raises(ContractError):
        calculus.quotient_rule_field(u, neg)


@pytest.mark.parametrize("bad", ["u", "phi_hat"])
def test_quotient_rule_rejects_a_non_finite_factor(bad):
    # an all-NaN phi_hat used to give l1_err[0] = nan; each argument is
    # checked before any work, and the error names it and its first bad node
    u = _sample1(16, lambda x: np.array([1.0 + x[0], x[0]]))
    phi_hat = gridfn.from_scalar(BOX1, u.grid, np.ones(16))
    if bad == "u":
        u.values[5, 1] = np.inf
    else:
        phi_hat.values[...] = np.nan
    node = 5 if bad == "u" else 0
    with pytest.raises(ContractError, match=rf"^{bad}: non-finite value at node \({node},\)$"):
        calculus.quotient_rule_field(u, phi_hat)


@pytest.mark.parametrize("bad", ["u", "psi"])
def test_product_rule_rejects_a_non_finite_factor(bad):
    # an all-NaN psi used to give the row (0.0625, nan)
    u = _sample1(16, lambda x: np.array([1.0 + x[0], x[0]]))
    psi = gridfn.from_scalar(BOX1, u.grid, np.linspace(0.0, 1.0, 16))
    if bad == "u":
        u.values[5, 1] = np.nan
    else:
        psi.values[...] = np.nan
    node = 5 if bad == "u" else 0
    with pytest.raises(ContractError, match=rf"^{bad}: non-finite value at node \({node},\)$"):
        calculus.product_rule_check(u, psi)


def test_product_rule_exact_on_affine_factors():
    n = 32
    u = _sample1(n, lambda x: np.array([x[0], 1.0]))
    t = u.grid.axes(u.domain)[0]
    psi = gridfn.from_scalar(BOX1, u.grid, 2.0 * t - 0.3)
    rep = calculus.product_rule_check(u, psi)
    assert rep.verdict == "MEASURED" and not rep.passed
    # psi*u is quadratic per coordinate, central quotients are exact on it
    assert rep.details["err_max"] <= 1e-12
    with pytest.raises(DimensionMismatchError):
        calculus.product_rule_check(u, u)


def test_holder_beta_linear_and_subsample():
    n = 128
    u = gridfn.from_scalar(BOX1, gridfn.GridSpec((n,)), 3.0 * (np.arange(n) + 0.5) / n)
    assert calculus.holder_beta(u, 1.0) == pytest.approx(3.0, rel=1e-12)
    a = calculus.holder_beta(u, 0.5, max_nodes=50, seed=7)
    b = calculus.holder_beta(u, 0.5, max_nodes=50, seed=7)
    assert a == b
    assert a <= calculus.holder_beta(u, 0.5) + 1e-15
    with pytest.raises(ValueError):
        calculus.holder_beta(u, 0.0)
    with pytest.raises(ValueError):
        calculus.holder_beta(u, 1.5)


@pytest.mark.parametrize("node", [10, 62])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_holder_beta_rejects_non_finite_values(node, bad):
    # a NaN used to drop rows of the scan: at node 62 of 64 the seminorm
    # came out 0.0, so a "seminorm below bound" check passed vacuously
    vals = np.sin(np.arange(64.0))
    vals[node] = bad
    u = gridfn.from_scalar(BOX1, gridfn.GridSpec((64,)), vals)
    with pytest.raises(ValueError, match=rf"non-finite value at node \({node},\)"):
        calculus.holder_beta(u, 0.5)
    box2 = gridfn.unit_box(2)
    vals2 = np.ones((8, 8))
    vals2[3, 5] = bad
    vals2[6, 1] = bad
    u2 = gridfn.from_scalar(box2, gridfn.GridSpec((8, 8)), vals2)
    with pytest.raises(ValueError, match=r"non-finite value at node \(3, 5\)"):
        calculus.holder_beta(u2, 0.5, max_nodes=4)


@pytest.mark.parametrize("node", [(0, 0), (3, 6), (4, 1), (7, 7)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_pass_rejects_a_non_finite_node(node, bad, monkeypatch):
    # windows of three rows over 8: (3, 6) is a new row, (4, 1) a row that
    # the next window carries.  The lattice and Gateaux rules run the same
    # pass (the lattice ones in a lattice space), so they reject it too
    u = gridfn.sample(gridfn.unit_box(2), gridfn.GridSpec((8, 8)), HIL2, lambda x: x)
    u.values[node + (1,)] = bad
    lattice = gridfn.GridFunction(u.domain, u.grid, banach.SpaceDescriptor("FiniteLr", 2, 1.5), u.values)
    monkeypatch.setattr(calculus._kernels, "NODE_BLOCK", 3 * u.values[0].size)
    for who, call in (("norm_derivative_field", calculus.norm_derivative_field),
                      ("norm_derivative_report", calculus.norm_derivative_report),
                      ("abs_derivative_field", lambda _: calculus.abs_derivative_field(lattice)),
                      ("pos_derivative_field", lambda _: calculus.pos_derivative_field(lattice)),
                      ("gateaux_chain_field",
                       lambda u: calculus.gateaux_chain_field(calculus.norm_lipschitz_map(HIL2), u))):
        with pytest.raises(ContractError, match=rf"^{who}: non-finite value at node \({node[0]}, {node[1]}\)$"):
            call(u)


def test_norm_derivative_report_rejects_a_blueprint_with_an_infinite_amplitude():
    rng = np.random.default_rng(6)
    amp = rng.normal(size=(2, 2, 2))
    amp[1, 0, 1] = np.inf
    bp = suite.SampleBlueprint(HIL2, 2, rng.normal(size=2), amp, rng.normal(size=(2, 2, 2)))
    with pytest.raises(ContractError, match=r"^norm_derivative_report: non-finite value at node \(0, 0\)$"):
        calculus.norm_derivative_report(bp, 16)


U16 = gridfn.from_scalar(BOX1, gridfn.GridSpec((16,)), np.sin(np.arange(16.0)))
U64 = gridfn.from_scalar(BOX1, gridfn.GridSpec((64,)), np.sin(np.arange(64.0)))
U64x4 = gridfn.from_scalar(gridfn.unit_box(2), gridfn.GridSpec((64, 4)), np.ones((64, 4)))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: gridfn.extend_reflect(U16, 2.5), "pad must be"),
        (lambda: gridfn.extend_reflect(U16, 2.0), "pad must be"),
        (lambda: gridfn.extend_reflect(U16, True), "pad must be"),
        (lambda: theorems.reflection_extension_report(U16, 2.0), "pad must be"),
        (lambda: theorems.tensor_extend(np.eye(3), 2.5), "h_dim must be"),
        (lambda: theorems.tensor_extend(np.eye(3), 2.0), "h_dim must be"),
        (lambda: calculus.holder_beta(U16, 0.5, max_nodes=10.5), "max_nodes must be"),
        (lambda: calculus.holder_beta(U16, 0.5, max_nodes=-3), "max_nodes must be"),
        (lambda: calculus.holder_beta(U16, 0.5, max_nodes=1), "max_nodes must be"),
        (lambda: gridfn.shift_node_norms(U16, 0, 2.5), "steps must be"),
        (lambda: calculus.dq_criterion(U16, 2.0, (1.5,)), "steps must be"),
        (lambda: calculus.dq_criterion(U16, 2.0, (1, 2.0)), "steps must be"),
        (lambda: calculus.dq_criterion(U16, 0.5), "p must be"),
        # no step fits: the verdict would rest on no quotient, or on one axis
        (lambda: calculus.dq_criterion(U64, 2.0, steps_list=()), "steps_list must be"),
        (lambda: calculus.dq_criterion(U64, 2.0, steps_list=(64,)), "steps_list must be"),
        (lambda: calculus.dq_criterion(U64x4, 2.0, steps_list=(4, 8)), "steps_list must be"),
        # exponents that are no number
        (lambda: calculus.dq_criterion(U16, "2"), "p must be"),
        (lambda: calculus.dq_criterion(U16, None), "p must be"),
        (lambda: gridfn.bochner_norm(U16, "2"), "p must be"),
        (lambda: gridfn.bochner_norm(U16, None), "p must be"),
        (lambda: theorems.covering_counts([U16], "2", [0.1]), "p must be"),
        (lambda: theorems.covering_counts([U16], None, [0.1]), "p must be"),
        (lambda: calculus.holder_beta(U16, "0.5"), "alpha must be"),
        (lambda: calculus.holder_beta(U16, None), "alpha must be"),
        (lambda: cx.indicator_path_witness("2", 256), "r must be"),
        (lambda: cx.indicator_path_witness(None, 256), "r must be"),
        # seeds below zero
        (lambda: calculus.holder_beta(U16, 0.5, max_nodes=4, seed=-1), "seed must be"),
        (lambda: theorems.embedding_check(U16, seed=-1), "seed must be"),
        (lambda: theorems.tensor_extend(np.eye(3), 2, seed=-1), "seed must be"),
        # a bool grid size, an axis out of range, an unusable operator or box
        (lambda: cx.indicator_path_witness(2.0, True), "n must be"),
        (lambda: gridfn.shift_difference_norm(U16, 5, 1, 2.0), "j must be"),
        (lambda: gridfn.shift_difference_norm(U16, -1, 1, 2.0), "j must be"),
        (lambda: theorems.tensor_extend(np.zeros((0, 0)), 2), "T must be"),
        (lambda: theorems.tensor_extend([[math.nan]], 2), r"T: non-finite value at node \(0,\)$"),
        (lambda: gridfn.BoxDomain([0.0], [math.inf]), "lo and hi must be"),
        # lists that are no list, an exponent never checked, a refine level
        # that is no count
        (lambda: theorems.covering_counts([U16], 2.0, None), "eps_list must be"),
        (lambda: theorems.covering_counts([U16], 2.0, "0.1"), "eps_list must be"),
        (lambda: calculus.dq_criterion(U16, 2.0, None), "steps_list must be"),
        (lambda: gridfn.shift_difference_norm(U16, 0, 1, None), "p must be"),
        (lambda: suite.run_entry("w0_equivalences", 42, -1), "refine must be"),
        (lambda: suite.run_entry("w0_equivalences", 42, "1"), "refine must be"),
    ],
    ids=[
        "extend_reflect-2.5", "extend_reflect-2.0", "extend_reflect-True",
        "reflection_extension_report-2.0", "tensor_extend-2.5", "tensor_extend-2.0",
        "holder_beta-10.5", "holder_beta-neg", "holder_beta-1", "shift_node_norms-2.5",
        "dq_criterion-1.5", "dq_criterion-2.0", "dq_criterion-p0.5",
        "dq_criterion-no-steps", "dq_criterion-64-of-64", "dq_criterion-short-axis",
        "dq_criterion-p-str", "dq_criterion-p-None", "bochner_norm-p-str",
        "bochner_norm-p-None", "covering_counts-p-str", "covering_counts-p-None",
        "holder_beta-alpha-str", "holder_beta-alpha-None", "indicator-r-str",
        "indicator-r-None", "holder_beta-seed", "embedding_check-seed",
        "tensor_extend-seed", "indicator-n-True", "shift-axis-5", "shift-axis-neg",
        "tensor_extend-empty", "tensor_extend-nan", "BoxDomain-inf",
        "covering_counts-eps-None", "covering_counts-eps-str", "dq_criterion-steps-None",
        "shift_difference_norm-p-None", "run_entry-refine-neg", "run_entry-refine-str",
    ],
)
def test_integer_params_raise_naming_the_param(call, message):
    # a float (even an integral one) or a bool is no count, an exponent below
    # 1, a string or None no exponent, and a negative seed, an axis outside
    # 0..d-1, an empty or non-finite operator or an infinite box no input:
    # each is rejected before any work, by its own name and with the
    # package's own error, not numpy's or Python's
    with pytest.raises(ContractError, match=rf"^{message}"):
        call()


def test_holder_beta_sqrt_profile():
    # t -> sqrt(t) has Hölder-1/2 seminorm exactly 1 on [0, 1]
    n = 256
    t = (np.arange(n) + 0.5) / n
    u = gridfn.from_scalar(BOX1, gridfn.GridSpec((n,)), np.sqrt(t))
    beta = calculus.holder_beta(u, 0.5)
    assert 0.9 <= beta <= 1.0 + 1e-12
