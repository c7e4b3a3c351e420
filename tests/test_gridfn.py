"""Grid sampling, quadrature norms, stencils, reflection, mollification,
and boundary norms of vector-valued grid functions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_banach import banach, gridfn, suite
from sobolev_banach.errors import ContractError, DimensionMismatchError, GridError


HIL2 = banach.SpaceDescriptor("Hilbert", 2)


def _linear(domain=None, grid=None, a=2.0, b=-1.0):
    """u(t) = (a*t + b, 0.5 - t) on [0,1], Hilbert R^2."""
    domain = domain or gridfn.unit_box(1)
    grid = grid or gridfn.GridSpec((16,))
    return gridfn.sample(
        domain, grid, HIL2, lambda x: np.array([a * x[0] + b, 0.5 - x[0]])
    )


def test_grid_centers_1d():
    dom = gridfn.unit_box(1)
    c = gridfn.grid_centers(dom, gridfn.GridSpec((4,)))
    assert np.array_equal(c[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_grid_centers_2d_shape_and_spacing():
    dom = gridfn.BoxDomain(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    g = gridfn.GridSpec((4, 8))
    c = gridfn.grid_centers(dom, g)
    assert c.shape == (4, 8, 2)
    assert np.allclose(g.spacing(dom), [0.5, 0.25])
    assert c[0, 0, 0] == 0.25 and c[0, 0, 1] == -0.875


def test_domain_and_grid_validation():
    with pytest.raises(GridError):
        gridfn.BoxDomain(np.array([0.0]), np.array([0.0]))
    with pytest.raises(DimensionMismatchError):
        gridfn.BoxDomain(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(GridError):
        gridfn.GridSpec((1,))
    # a box or grid with no axis would carry grid functions on no domain
    with pytest.raises(DimensionMismatchError, match="^lo and hi must be 1-d of equal length >= 1$"):
        gridfn.BoxDomain([], [])
    with pytest.raises(ContractError, match="^d must be >= 1, got 0$"):
        gridfn.unit_box(0)
    for n in ((), [], np.array([])):
        with pytest.raises(GridError, match="^need at least one axis$"):
            gridfn.GridSpec(n)
    with pytest.raises(DimensionMismatchError):
        gridfn.GridSpec((4, 4)).spacing(gridfn.unit_box(1))


@pytest.mark.parametrize(
    "n", [(8.5,), (8.0,), ("8",), (True,), (np.float64(8.0),), (None,), (8, 8.5), 8.5, "8"],
    ids=repr,
)
def test_grid_rejects_non_integer_cell_counts(n):
    # int() would truncate these to a grid of 8 (or 1) cells
    with pytest.raises(GridError, match="cell counts must be integers"):
        gridfn.GridSpec(n)


def test_grid_takes_integer_cell_counts():
    for n in [(8,), (np.int64(8),), np.array([8, 16]), 8, [4, 5]]:
        g = gridfn.GridSpec(n)
        assert all(type(k) is int for k in g.n)
    assert gridfn.GridSpec(np.array([8, 16])).n == (8, 16)
    assert gridfn.GridSpec(8).n == (8,)


def test_sample_rejects_non_finite_with_node():
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((8,))

    def bad(x):
        # the cell center 0.3125 is node 2 on an 8-cell unit grid
        return np.array([np.inf if x[0] == 0.3125 else 1.0, 0.0])

    with pytest.raises(ValueError, match=r"\(2,\)"):
        gridfn.sample(dom, g, HIL2, bad)


def test_sample_rejects_misshapen_values_with_node():
    # node (1, 2) of a 4 x 4 grid has the cell center (0.375, 0.625)
    dom = gridfn.unit_box(2)
    g = gridfn.GridSpec((4, 4))
    for value in (1.0, np.ones(3), np.ones((1, 2))):

        def rule(x):
            return value if tuple(x) == (0.375, 0.625) else np.ones(2)

        shape = re.escape(str(np.shape(value)))
        msg = rf"^sample: value at node \(1, 2\) has shape {shape}, expected \(2,\)$"
        with pytest.raises(DimensionMismatchError, match=msg):
            gridfn.sample(dom, g, HIL2, rule)
    for value in ({}, "ab", [1.0, "x"], [1j, 0.0], [True, False], [[1.0], [1.0, 2.0]]):

        def rule(x):
            return value if tuple(x) == (0.375, 0.625) else np.ones(2)

        with pytest.raises(ContractError, match=r"^sample: value at node \(1, 2\) must be real"):
            gridfn.sample(dom, g, HIL2, rule)


def test_bochner_norm_of_constant():
    dom = gridfn.unit_box(2)
    g = gridfn.GridSpec((4, 4))
    c = np.array([3.0, 4.0])
    u = gridfn.sample(dom, g, HIL2, lambda x: c)
    # constants on the unit box have every L^p norm equal to |c| = 5
    for p in (1.0, 2.0, 3.0, math.inf):
        assert gridfn.bochner_norm(u, p) == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(ValueError):
        gridfn.bochner_norm(u, 0.5)


def test_bochner_matches_scalar_of_pointwise_norms():
    rng = np.random.default_rng(20)
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((32,))
    for _ in range(20):
        sp = banach.SpaceDescriptor("GridLr", 3, 2.5, rng.random(3) + 0.5)
        u = gridfn.GridFunction(dom, g, sp, rng.normal(size=(32, 3)))
        scal = gridfn.pointwise_norm_function(u)
        assert scal.space == banach.scalar_space()
        for p in (1.0, 2.0, math.inf):
            assert gridfn.bochner_norm(u, p) == gridfn.bochner_norm(scal, p)


def test_finite_difference_exact_on_quadratic():
    # central stencil (and its second-order one-sided boundary variant)
    # differentiates quadratics without truncation error
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((16,))
    u = gridfn.sample(dom, g, HIL2, lambda x: np.array([x[0] ** 2, 3.0 * x[0]]))
    df = gridfn.finite_difference(u)
    t = g.axes(dom)[0]
    assert np.allclose(df[0].values[:, 0], 2.0 * t, atol=1e-13, rtol=0)
    assert np.allclose(df[0].values[:, 1], 3.0, atol=1e-13, rtol=0)


def test_finite_difference_2d_directions():
    dom = gridfn.unit_box(2)
    g = gridfn.GridSpec((8, 8))
    u = gridfn.sample(
        dom, g, HIL2, lambda x: np.array([x[0] * 2.0 + x[1], x[1] * 5.0])
    )
    df = gridfn.finite_difference(u)
    assert isinstance(df, list) and len(df) == 2
    assert np.allclose(df[0].values[..., 0], 2.0, atol=1e-12)
    assert np.allclose(df[0].values[..., 1], 0.0, atol=1e-12)
    assert np.allclose(df[1].values[..., 0], 1.0, atol=1e-12)
    assert np.allclose(df[1].values[..., 1], 5.0, atol=1e-12)


def test_interior_mask():
    m = gridfn.interior_mask(gridfn.GridSpec((5, 4)))
    assert m.shape == (5, 4)
    assert m.sum() == 3 * 2
    assert not m[0].any() and not m[-1].any()


def test_w_norm_constant_has_no_derivative_part():
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((12,))
    u = gridfn.sample(dom, g, HIL2, lambda x: np.array([3.0, 4.0]))
    assert gridfn.w_norm(u) == gridfn.bochner_norm(u, gridfn.SOBOLEV_P)


def test_shift_difference_norm_linear_closed_form():
    # for u(t) = (a t + b, ...) the k-step difference is exactly k*h*(a, ...)
    # on the n-k surviving nodes
    n, a = 32, 2.0
    u = _linear(grid=gridfn.GridSpec((n,)), a=a, b=0.0)
    h = 1.0 / n
    for k in (1, 3, 7):
        got = gridfn.shift_difference_norm(u, 0, k, 2.0)
        step = k * h * math.hypot(a, -1.0)
        want = step * math.sqrt((n - k) * h)
        assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        gridfn.shift_difference_norm(u, 0, 0, 2.0)
    with pytest.raises(GridError):
        gridfn.shift_difference_norm(u, 0, n, 2.0)


def test_extend_reflect_restriction_identity():
    rng = np.random.default_rng(21)
    dom = gridfn.unit_box(2)
    g = gridfn.GridSpec((6, 7))
    u = gridfn.GridFunction(dom, g, HIL2, rng.normal(size=(6, 7, 2)))
    ext = gridfn.extend_reflect(u, 3)
    assert ext.grid.n == (12, 13)
    assert np.array_equal(ext.values[3:9, 3:10], u.values)
    # mirror symmetry across the low face of axis 0
    assert np.array_equal(ext.values[2], ext.values[3])
    assert np.array_equal(ext.values[0], ext.values[5])
    assert np.allclose(ext.domain.lo, dom.lo - 3 * g.spacing(dom))
    with pytest.raises(ValueError):
        gridfn.extend_reflect(u, 0)
    with pytest.raises(GridError):
        gridfn.extend_reflect(u, 7)


def test_mollifier_weights_normalized_and_symmetric():
    offsets, w = gridfn.mollifier_weights(np.array([1.0 / 64]), 4)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(offsets[:, 0], -offsets[::-1, 0])
    assert np.allclose(w, w[::-1])
    with pytest.raises(ValueError):
        gridfn.mollifier_weights(np.array([0.1]), 0)


@pytest.mark.parametrize("level", [2.5, True, math.nan])
def test_mollifier_level_must_be_an_integer(level):
    u = _linear(grid=gridfn.GridSpec((64,)))
    for call in (lambda: gridfn.mollifier_weights(u.grid.spacing(u.domain), level),
                 lambda: gridfn.mollify(u, level)):
        with pytest.raises(ContractError, match=f"level must be an integer, got {level!r}"):
            call()


def test_mollify_preserves_constants_bitwise():
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((64,))
    u = gridfn.sample(dom, g, HIL2, lambda x: np.array([math.pi, -math.e]))
    sm = gridfn.mollify(u, 4)
    assert np.array_equal(sm.values, u.values)


def test_mollify_smooths_and_respects_range():
    rng = np.random.default_rng(22)
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((128,))
    u = gridfn.from_scalar(dom, g, rng.normal(size=128))
    sm = gridfn.mollify(u, 8)
    assert sm.values.max() <= u.values.max() + 1e-12
    assert sm.values.min() >= u.values.min() - 1e-12
    # total variation drops under averaging
    tv = lambda v: np.abs(np.diff(v[:, 0])).sum()
    assert tv(sm.values) < 0.5 * tv(u.values)
    with pytest.raises(GridError):
        gridfn.mollify(gridfn.from_scalar(dom, gridfn.GridSpec((8,)), np.ones(8)), 32)


# properties that hold exactly on the grid, up to rounding, in every space
# kind of the corpus and at d = 1 and 2
GRID_PROPERTIES = dict(derandomize=True, max_examples=20, deadline=None)
KIND_SPACES = pytest.mark.parametrize("space", [space for _, space in suite.KIND_SPECS],
                                      ids=[name for name, _ in suite.KIND_SPECS])


@st.composite
def grid_functions(draw, space, d):
    """Grid functions in ``space`` on the unit box, on (n,)*d grids with
    n >= 2: smooth (a sine of a linear form per coordinate) or rough
    (independent normal nodes), scaled by 1e-3 to 1e3, with exact zeros
    and -0.0 among the values."""
    n = draw(st.integers(2, 24) if d == 1 else st.integers(2, 9))
    dom, grid = gridfn.unit_box(d), gridfn.GridSpec((n,) * d)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        values = rng.normal(size=grid.n + (space.dim,))
    else:
        form = 6.0 * rng.normal(size=(d, space.dim))
        values = np.sin(gridfn.grid_centers(dom, grid) @ form + rng.normal(size=space.dim))
    values *= 10.0 ** draw(st.integers(-3, 3))
    values.flat[rng.integers(values.size, size=2)] = 0.0
    values.flat[rng.integers(values.size, size=2)] = -0.0
    return gridfn.GridFunction(dom, grid, space, values)


@KIND_SPACES
@pytest.mark.parametrize("d", [1, 2])
@given(data=st.data())
@settings(**GRID_PROPERTIES)
def test_extend_reflect_restricts_to_u_bit_for_bit(space, d, data):
    u = data.draw(grid_functions(space, d))
    pad = data.draw(st.integers(1, min(u.grid.n)))
    ext = gridfn.extend_reflect(u, pad)
    assert ext.grid.n == tuple(k + 2 * pad for k in u.grid.n)
    inner = ext.values[(slice(pad, -pad),) * d]
    assert np.array_equal(inner, u.values)
    assert np.array_equal(np.signbit(inner), np.signbit(u.values))


@KIND_SPACES
@pytest.mark.parametrize("d", [1, 2])
@given(data=st.data())
@settings(**GRID_PROPERTIES)
def test_mollify_raises_no_pointwise_norm_above_the_largest(space, d, data):
    # each output node is a convex combination of reflected samples of u,
    # so by the triangle inequality its norm is at most the largest norm M
    # of u.  Slack: with m offsets each coordinate's m terms round by at
    # most about 3 m eps times the largest coordinate, which is at most dim
    # times M over the norm of a coordinate vector in these spaces
    u = data.draw(grid_functions(space, d))
    level = data.draw(st.integers(1, u.grid.n[0] - 1))
    m = len(gridfn.mollifier_weights(u.grid.spacing(u.domain), level)[1])
    top = gridfn.pointwise_norms(u).max()
    slack = 8.0 * (m + 2) * space.dim * np.finfo(float).eps
    assert gridfn.pointwise_norms(gridfn.mollify(u, level)).max() <= top * (1.0 + slack)


def test_trace_linear_extrapolation_exact_on_affine():
    # u(t) = (2t + 1, 0.5 - t): linear extrapolation from the two nearest
    # layers hits the faces exactly, u(0) = (1, 0.5) and u(1) = (3, -0.5)
    u = _linear(a=2.0, b=1.0)
    lo, hi = math.hypot(1.0, 0.5), math.hypot(3.0, -0.5)
    # the two faces of the interval are points of unit weight: the L^2 norm
    # of the trace is sqrt(|u(0)|^2 + |u(1)|^2)
    assert gridfn.boundary_norm(u) == pytest.approx(math.hypot(lo, hi), abs=1e-12)


def test_trace_2d_area_weights():
    dom = gridfn.BoxDomain(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    g = gridfn.GridSpec((4, 8))
    u = gridfn.sample(dom, g, HIL2, lambda x: np.array([1.0, 0.0]))
    # the L^2 boundary norm of a unit-norm constant is the square root of
    # the perimeter
    assert gridfn.boundary_norm(u) == pytest.approx(math.sqrt(6.0), rel=1e-13)


def test_apply_functional_carries_quadrature_weights():
    rng = np.random.default_rng(23)
    dom = gridfn.unit_box(1)
    g = gridfn.GridSpec((16,))
    w = rng.random(3) + 0.5
    sp = banach.SpaceDescriptor("GridLr", 3, 2.0, w)
    u = gridfn.GridFunction(dom, g, sp, rng.normal(size=(16, 3)))
    f = rng.normal(size=3)
    out = gridfn.apply_functional(u, f)
    assert out.space == banach.scalar_space()
    assert np.allclose(out.values[:, 0], u.values @ (w * f), atol=1e-14)
    for bad in (np.ones((3, 3)), np.ones((16, 3)), np.ones(2), 1.0):
        with pytest.raises(DimensionMismatchError):
            gridfn.apply_functional(u, bad)


def test_gridfunction_shape_validation():
    with pytest.raises(DimensionMismatchError):
        gridfn.GridFunction(
            gridfn.unit_box(1), gridfn.GridSpec((4,)), HIL2, np.zeros((4, 3))
        )
    u = _linear()
    with pytest.raises(DimensionMismatchError):
        gridfn.gf_sub(u, gridfn.from_scalar(u.domain, u.grid, np.zeros(16)))
    # equal dims are not enough: Hilbert R^4 minus ell^1 R^4 does not conform
    hil, l1 = (
        gridfn.GridFunction(u.domain, u.grid, space, np.zeros((16, 4)))
        for space in (banach.SpaceDescriptor("Hilbert", 4),
                      banach.SpaceDescriptor("FiniteLr", 4, exponent=1.0))
    )
    with pytest.raises(DimensionMismatchError):
        gridfn.gf_sub(hil, l1)
    assert gridfn.gf_sub(hil, hil).space == hil.space
    # equal grids are not enough: functions on (0,1)^2 and (0,3)^2 do not conform
    grid = gridfn.GridSpec((4, 4))
    square, wide = (
        gridfn.from_scalar(dom, grid, np.ones((4, 4)))
        for dom in (gridfn.unit_box(2), gridfn.BoxDomain([0.0, 0.0], [3.0, 3.0]))
    )
    with pytest.raises(DimensionMismatchError):
        gridfn.gf_sub(square, wide)
    assert gridfn.gf_sub(wide, wide).domain == wide.domain


@pytest.mark.parametrize("n", [(2,), (3,), (9,), (2, 5), (4, 3), (6, 5, 4)])
def test_interior_mask_of_rows_is_a_slice_of_the_whole_mask(n):
    grid = gridfn.GridSpec(n)
    whole = gridfn.interior_mask(grid)
    assert whole.sum() == math.prod(k - 2 for k in n)
    for a in range(n[0]):
        for b in range(a + 1, n[0] + 1):
            assert np.array_equal(gridfn.interior_mask(grid, slice(a, b)), whole[a:b])
