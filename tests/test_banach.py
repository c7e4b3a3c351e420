"""Norm axioms, one-sided derivative pairings, and lattice operations.

Property checks run over seeded batches per space kind; the pairing values
are cross-checked against central finite differences of the norm on rows
where the norming functional is unique.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sobolev_banach import _kernels, banach, gridfn, suite
from sobolev_banach.errors import CapabilityError, ContractError, DimensionMismatchError
from test_bit_equivalence import SPACES, _whole_pairing


def _spaces(rng):
    w = rng.random(6) + 0.5
    return [
        banach.SpaceDescriptor("FiniteLr", 6, 1.0),
        banach.SpaceDescriptor("FiniteLr", 6, 2.0),
        banach.SpaceDescriptor("FiniteLr", 6, 3.0),
        banach.SpaceDescriptor("FiniteLr", 6, math.inf),
        banach.SpaceDescriptor("SampledSup", 6),
        banach.SpaceDescriptor("GridLr", 6, 1.0, w),
        banach.SpaceDescriptor("GridLr", 6, 2.0, w),
        banach.SpaceDescriptor("GridLr", 6, 3.5, w),
        banach.SpaceDescriptor("Hilbert", 6),
    ]


def test_norm_axioms():
    rng = np.random.default_rng(100)
    for space in _spaces(rng):
        X = rng.normal(size=(400, 6))
        Y = rng.normal(size=(400, 6))
        nx = banach.norm(space, X)
        ny = banach.norm(space, Y)
        nxy = banach.norm(space, X + Y)
        assert np.all(nx > 0.0)
        assert banach.norm(space, np.zeros(6)) == 0.0
        # scaling by a power of two is exact through abs/square/sqrt paths;
        # general exponents go through pow, which only promises ~1 ulp
        scaled = banach.norm(space, 4.0 * X)
        if space.exponent in (1.0, 2.0, math.inf):
            assert np.array_equal(scaled, 4.0 * nx)
        else:
            assert np.allclose(scaled, 4.0 * nx, rtol=1e-14, atol=0)
        assert np.all(nxy <= nx + ny + 1e-12 * (1.0 + nx + ny))


def test_hilbert_matches_euclidean_bitwise():
    rng = np.random.default_rng(101)
    hil = banach.SpaceDescriptor("Hilbert", 9)
    l2 = banach.SpaceDescriptor("FiniteLr", 9, 2.0)
    X = rng.normal(size=(200, 9))
    assert np.array_equal(banach.norm(hil, X), banach.norm(l2, X))


def test_gridlr_uniform_weights_default():
    sp = banach.SpaceDescriptor("GridLr", 4, 2.0)
    assert np.allclose(sp.weights, 0.25)
    x = np.array([1.0, -1.0, 1.0, -1.0])
    assert banach.norm(sp, x) == pytest.approx(1.0, abs=1e-15)


def test_capability_flags():
    assert banach.SpaceDescriptor("Hilbert", 3).lattice_capable is False
    assert banach.SpaceDescriptor("SampledSup", 3).order_continuous is False
    assert banach.SpaceDescriptor("FiniteLr", 3, math.inf).order_continuous is False
    assert banach.SpaceDescriptor("GridLr", 3, 1.5).order_continuous is True
    assert banach.SpaceDescriptor("SampledSup", 3).sup_like is True


def test_pairing_matches_central_difference():
    # on rows with a unique norming functional the one-sided derivatives
    # coincide and equal the classical directional derivative of the norm
    rng = np.random.default_rng(102)
    t = 1e-6
    for space in _spaces(rng):
        X = rng.normal(size=(400, 6))
        H = rng.normal(size=(400, 6))
        plus, minus, unique = banach.one_sided_norm_derivative_batch(space, X, H)
        fd = (banach.norm(space, X + t * H) - banach.norm(space, X - t * H)) / (2 * t)
        # keep rows safely away from the kink sets of r=1 / sup norms
        gap = np.sort(np.abs(X), axis=-1)
        safe = unique & (gap[:, 0] > 1e-3) & (gap[:, -1] - gap[:, -2] > 1e-3)
        assert safe.sum() > 300
        hn = banach.norm(space, H)
        err = np.abs(plus - fd)[safe]
        assert np.all(err <= 1e-4 * (1.0 + hn[safe]))
        assert np.allclose(plus[safe], minus[safe], atol=1e-9, rtol=0)


def test_pairing_reflection_identity():
    # D_h^- |x| == -D_{-h}^+ |x| exactly, for every kind
    rng = np.random.default_rng(103)
    for space in _spaces(rng):
        X = rng.normal(size=(300, 6))
        X[rng.random(size=(300, 6)) < 0.2] = 0.0  # force kinks
        H = rng.normal(size=(300, 6))
        plus_f, minus_f, _ = banach.one_sided_norm_derivative_batch(space, X, H)
        plus_b, minus_b, _ = banach.one_sided_norm_derivative_batch(space, X, -H)
        assert np.array_equal(minus_f, -plus_b)
        assert np.array_equal(plus_f, -minus_b)
        assert np.all(plus_f >= minus_f)


def test_pairing_bounded_by_direction_norm():
    rng = np.random.default_rng(104)
    for space in _spaces(rng):
        X = rng.normal(size=(300, 6))
        X[rng.random(size=(300, 6)) < 0.2] = 0.0
        H = rng.normal(size=(300, 6))
        plus, minus, _ = banach.one_sided_norm_derivative_batch(space, X, H)
        hn = banach.norm(space, H)
        bound = hn * (1.0 + 1e-12)
        assert np.all(plus <= bound)
        assert np.all(minus >= -bound)


def test_pairing_at_origin():
    rng = np.random.default_rng(105)
    for space in _spaces(rng):
        h = rng.normal(size=6)
        res = banach.one_sided_norm_derivative(space, np.zeros(6), h)
        assert res.plus == banach.norm(space, h)
        assert res.minus == -banach.norm(space, h)
        assert not res.unique


def test_l1_zero_coordinate_gap():
    # the ell^1 norming functionals at x differ exactly on the zero set of x:
    # plus - minus = 2 * sum_{x_s = 0} w_s |h_s|
    rng = np.random.default_rng(106)
    for space in (
        banach.SpaceDescriptor("FiniteLr", 6, 1.0),
        banach.SpaceDescriptor("GridLr", 6, 1.0, rng.random(6) + 0.5),
    ):
        w = space.weights
        for _ in range(50):
            x = rng.normal(size=6)
            x[rng.integers(0, 6, size=2)] = 0.0
            h = rng.normal(size=6)
            res = banach.one_sided_norm_derivative(space, x, h)
            gap = 2.0 * np.sum(w * np.abs(h) * (x == 0.0))
            assert res.plus - res.minus == pytest.approx(gap, abs=1e-14)


def test_sup_norm_tie_set():
    sp = banach.SpaceDescriptor("SampledSup", 3)
    x = np.array([1.0, 1.0, 0.5])
    h = np.array([0.3, -0.7, 100.0])
    res = banach.one_sided_norm_derivative(sp, x, h)
    # extreme functionals live on the argmax set {0, 1} with positive sign
    assert res.plus == 0.3
    assert res.minus == -0.7
    assert not res.unique
    res2 = banach.one_sided_norm_derivative(sp, np.array([-2.0, 1.0, 0.5]), h)
    assert res2.plus == -0.3 and res2.minus == -0.3 and res2.unique


def test_scalar_space_norm_is_abs():
    sp = banach.scalar_space()
    rng = np.random.default_rng(108)
    X = rng.normal(size=(100, 1))
    assert np.array_equal(banach.norm(sp, X), np.abs(X[:, 0]))
    assert sp.lattice_capable and sp.order_continuous


def test_pairing_vector_weights():
    rng = np.random.default_rng(109)
    w = rng.random(4) + 0.5
    grid = banach.SpaceDescriptor("GridLr", 4, 2.0, w)
    f = rng.normal(size=4)
    assert np.array_equal(banach.pairing_vector(grid, f), w * f)
    flat = banach.SpaceDescriptor("FiniteLr", 4, 2.0)
    assert np.array_equal(banach.pairing_vector(flat, f), f)
    # one vector, never a stack of them
    for bad in (np.ones((2, 4)), np.ones((1, 4)), np.ones(3), 1.0):
        with pytest.raises(DimensionMismatchError):
            banach.pairing_vector(grid, bad)


def test_descriptor_validation():
    with pytest.raises(CapabilityError):
        banach.SpaceDescriptor("Sobolev", 3)
    with pytest.raises(DimensionMismatchError):
        banach.SpaceDescriptor("Hilbert", 0)
    with pytest.raises(CapabilityError):
        banach.SpaceDescriptor("FiniteLr", 3, 0.5)
    with pytest.raises(CapabilityError):
        banach.SpaceDescriptor("FiniteLr", 3, 2.0, np.ones(3))
    with pytest.raises(CapabilityError):
        banach.SpaceDescriptor("GridLr", 3, 2.0, -np.ones(3))
    with pytest.raises(DimensionMismatchError):
        banach.SpaceDescriptor("GridLr", 3, 2.0, np.ones(4))
    # bad types and values are the package's own errors, naming the field
    for kind, dim in (("GridLr", 2.5), ("Hilbert", 2.5), ("Hilbert", 2.0),
                      ("FiniteLr", "3"), ("FiniteLr", True)):
        with pytest.raises(DimensionMismatchError, match="dim must be an integer"):
            banach.SpaceDescriptor(kind, dim)
    for exponent in ("2", None, True, math.nan):
        with pytest.raises(CapabilityError, match="exponent must be"):
            banach.SpaceDescriptor("FiniteLr", 3, exponent)
    for weights in ([1.0, 2.0, math.inf], [1.0, math.nan, 1.0]):
        with pytest.raises(CapabilityError, match="^GridLr weights must be positive and finite$"):
            banach.SpaceDescriptor("GridLr", 3, 2.0, weights)
    # weights that are not real numbers are no weights at all
    for weights in ("abc", ["1", "2", "3"], [1j, 1.0, 1.0], [True, True, True]):
        with pytest.raises(ContractError, match="^weights must be real numbers, got dtype") as e:
            banach.SpaceDescriptor("GridLr", 3, 2.0, weights)
        assert type(e.value) is ContractError
    assert banach.SpaceDescriptor("GridLr", np.int64(3), 2).dim == 3
    # Hilbert pins its exponent, SampledSup its sup norm
    assert banach.SpaceDescriptor("Hilbert", 3, 7.0).exponent == 2.0
    assert math.isinf(banach.SpaceDescriptor("SampledSup", 3, 2.0).exponent)


def test_descriptors_compare_and_hash_by_value():
    weighted = banach.SpaceDescriptor("GridLr", 4, 2.5, [0.1, 0.2, 0.3, 0.4])
    for space in [s for _, s in suite.KIND_SPECS] + [weighted]:
        weights = space.weights.copy() if space.kind == "GridLr" else None
        copy = banach.SpaceDescriptor(space.kind, space.dim, space.exponent, weights)
        assert copy is not space and copy == space and hash(copy) == hash(space)
        assert not space.weights.flags.writeable
    assert weighted != banach.SpaceDescriptor("GridLr", 4, 2.5, [0.4, 0.3, 0.2, 0.1])
    assert weighted != banach.SpaceDescriptor("GridLr", 4, 2.5)
    assert banach.SpaceDescriptor("GridLr", 4, 2) == banach.SpaceDescriptor(
        "GridLr", 4, 2.0, [0.25] * 4
    )
    assert banach.SpaceDescriptor("Hilbert", 3) != banach.SpaceDescriptor("FiniteLr", 3)
    assert len({weighted, banach.SpaceDescriptor("GridLr", 4, 2.5, weighted.weights)}) == 1
    # boxes compare and hash by their corners, and a box keeps its corners
    box = gridfn.unit_box(2)
    copy = gridfn.BoxDomain(np.zeros(2), [1, 1])
    assert copy is not box and copy == box and hash(copy) == hash(box)
    assert box != gridfn.BoxDomain([0.0, 0.0], [1.0, 3.0]) and box != gridfn.unit_box(3)
    assert box != banach.SpaceDescriptor("Hilbert", 2)
    assert len({box, copy, gridfn.unit_box(1)}) == 2
    lo = np.zeros(2)
    gridfn.BoxDomain(lo, [1.0, 1.0])
    lo[0] = -1.0  # the box holds a copy, so the caller's array stays writeable
    assert not box.lo.flags.writeable and not box.hi.flags.writeable


def test_vector_validation():
    sp = banach.SpaceDescriptor("Hilbert", 3)
    with pytest.raises(DimensionMismatchError, match=r"^x has shape \(4,\), expected \(\.\.\., 3\)$"):
        banach.norm(sp, np.ones(4))
    with pytest.raises(ContractError, match=r"^h: non-finite value at node \(\)$"):
        banach.one_sided_norm_derivative(sp, np.ones(3), np.array([1.0, np.nan, 0.0]))
    with pytest.raises(DimensionMismatchError):
        banach.one_sided_norm_derivative_batch(sp, np.ones((4, 3)), np.ones((5, 3)))
    # a scalar has no last axis, even for a space of dim 1
    line = banach.SpaceDescriptor("Hilbert", 1)
    with pytest.raises(DimensionMismatchError, match=r"^x has shape \(\), expected \(\.\.\., 1\)$"):
        banach.norm(line, 3.0)
    with pytest.raises(DimensionMismatchError, match=r"^x has shape \(\), expected \(1,\)$"):
        banach.one_sided_norm_derivative(line, 3.0, 1.0)


# Properties over drawn batches.  Coordinates come from a small pool of
# values, so that the zeros and ties where the norming functional is not
# unique turn up often, mixed with floats of magnitude 1e-6 to 1e3.  Far
# smaller magnitudes reach the underflow that
# test_norm_of_tiny_vector_underflows pins.

PROPERTIES = dict(derandomize=True, max_examples=200, deadline=None)
COORDS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(1e-6, 1e3),
    st.floats(-1e3, -1e-6),
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def any_space(draw):
    """A space of any kind and of dim 1-7, with a drawn exponent and
    drawn weights where the kind takes them."""
    kind, dim = draw(st.sampled_from(banach.KINDS)), draw(st.integers(1, 7))
    exponent = draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]) | st.floats(1.0, 6.0))
    weights = None
    if kind == "GridLr":
        weights = draw(arrays(np.float64, dim, elements=st.floats(0.05, 4.0)))
    return banach.SpaceDescriptor(kind, dim, exponent, weights)


@st.composite
def batches(draw, count=2, spaces=st.sampled_from(SPACES)):
    """A space from ``spaces`` (SPACES by default) and ``count`` batches of
    rows in it."""
    space = draw(spaces)
    rows = draw(st.integers(1, 8))
    return (space,) + tuple(
        draw(arrays(np.float64, (rows, space.dim), elements=COORDS)) for _ in range(count)
    )


@given(batches())
@settings(**PROPERTIES)
def test_pairing_sides_ordered_reflected_and_bounded(case):
    space, X, H = case
    plus, minus, unique = banach.one_sided_norm_derivative_batch(space, X, H)
    assert np.all(plus >= minus)
    # D_h^- = -D_{-h}^+ and D_h^+ = -D_{-h}^-, bit for bit
    plus_b, minus_b, unique_b = banach.one_sided_norm_derivative_batch(space, X, -H)
    assert np.array_equal(minus, -plus_b) and np.array_equal(plus, -minus_b)
    assert np.array_equal(unique, unique_b)
    # |D_h^+-| <= |h|: the norming functionals have norm one
    bound = banach.norm(space, H) * (1.0 + 1e-12)
    assert np.all(np.abs(plus) <= bound) and np.all(np.abs(minus) <= bound)


def _exact_batch(space):
    """Whether a batch pairs exactly as its single rows do: rows of fewer
    than 8 terms (``_kernels.row_sum``)."""
    return space.dim < 8


def test_exact_batch_spaces_are_drawn():
    # the exact (scale 0) case of the next test runs for every kind
    assert {s.kind for s in SPACES if _exact_batch(s)} == set(banach.KINDS)


@given(batches())
@settings(**PROPERTIES)
def test_pairing_batch_matches_single_rows(case):
    # equal up to rounding for rows of 8 or more terms, whose sums BLAS may
    # round by their place in the batch; exact below that
    space, X, H = case
    plus, minus, unique = banach.one_sided_norm_derivative_batch(space, X, H)
    scale = 1e-14 * (1.0 + banach.norm(space, H))
    if _exact_batch(space):
        scale[:] = 0.0
    for i in range(X.shape[0]):
        one = banach.one_sided_norm_derivative(space, X[i], H[i])
        assert abs(one.plus - plus[i]) <= scale[i] and abs(one.minus - minus[i]) <= scale[i]
        assert one.unique == unique[i]


@given(batches(spaces=any_space()))
@settings(**PROPERTIES)
def test_single_rows_norm_and_pair_as_in_the_batch(case):
    # a lone row is summed as a row of a batch is, so the single-vector
    # forms give row i of the batch forms bit for bit, for every kind,
    # exponent and weights
    space, X, H = case
    nx = banach.norm(space, X)
    plus, minus, unique = banach.one_sided_norm_derivative_batch(space, X, H)
    for i in range(X.shape[0]):
        one = banach.one_sided_norm_derivative(space, X[i], H[i])
        single = np.array([banach.norm(space, X[i]), one.plus, one.minus])
        assert np.array_equal(_bits(single), _bits(np.array([nx[i], plus[i], minus[i]])))
        assert one.unique == unique[i]


@given(batches(), COORDS)
@settings(**PROPERTIES)
def test_norm_triangle_and_homogeneity(case, c):
    space, X, Y = case
    nx, ny = banach.norm(space, X), banach.norm(space, Y)
    assert np.all(nx >= 0.0) and np.all((nx == 0.0) == np.all(X == 0.0, axis=-1))
    assert np.all(banach.norm(space, X + Y) <= (nx + ny) * (1.0 + 1e-12))
    assert np.allclose(banach.norm(space, c * X), abs(c) * nx, rtol=1e-12, atol=0.0)


SMOOTH_LR = [s for s in SPACES if not s.sup_like and s.exponent != 1.0]
#: COORDS three times in four, else a finite coordinate near the largest
#: float, whose powers and sums overflow (the pairing takes finite input:
#: test_pairing_batch_rejects_non_finite_input)
WILD = st.one_of(COORDS, COORDS, COORDS, st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308]))


@st.composite
def smooth_lr_batches(draw):
    """A smooth-Lr space from SPACES, a point batch and a direction batch;
    either batch may hold coordinates near +-1.7e308, and the points may
    hold zero rows."""
    space = draw(st.sampled_from(SMOOTH_LR))
    rows = draw(st.integers(1, 8))
    X, H = (draw(arrays(np.float64, (rows, space.dim), elements=draw(st.sampled_from([COORDS, WILD]))))
            for _ in range(2))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        X[i] = 0.0
    return space, X, H


@given(smooth_lr_batches())
@settings(**PROPERTIES)
def test_smooth_lr_pairing_without_direction_norms_is_the_full_pairing(case):
    # with no zero row the pairing skips |h|; it must give the bits of the
    # pairing that forms |h| and substitutes it on zero rows
    space, X, H = case
    with np.errstate(all="ignore"):
        plus, minus, unique = banach._pairing_at(space, X, banach.norm(space, X))(H)
        want_plus, want_minus, want_unique = _whole_pairing(space, X, H)
    assert np.array_equal(_bits(plus), _bits(want_plus))
    assert np.array_equal(_bits(minus), _bits(want_minus))
    assert np.array_equal(unique, want_unique)


def test_smooth_lr_pairing_skips_direction_norms_without_zero_rows(monkeypatch):
    space = banach.SpaceDescriptor("GridLr", 4, exponent=2.5, weights=[0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(8)
    X, H = rng.normal(size=(2, 6, 4))
    norms = []
    monkeypatch.setattr(banach, "norm", lambda sp, x: norms.append(x) or _kernels_norm(sp, x))
    pair = banach._pairing_at(space, X, _kernels_norm(space, X))
    plus, minus, unique = pair(H)
    assert norms == [] and unique.all() and plus is not minus
    X[2] = 0.0  # a zero row pairs to (|h|, -|h|)
    plus, minus, _ = banach._pairing_at(space, X, _kernels_norm(space, X))(H)
    assert len(norms) == 1 and plus[2] == -minus[2] == _kernels_norm(space, H)[2]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}-{s.exponent}")
def test_pairing_norms_directions_only_where_the_points_need_it(space, monkeypatch):
    # |h| is formed once per call, and only for a zero row, a sup row with
    # several ties or an ell^1 zero coordinate; X alone decides
    rng = np.random.default_rng(3)
    X, H = rng.normal(size=(2, 6, space.dim))
    needs = {"zero row": (2, 0.0)}  # where and what to write into X
    if space.sup_like:
        needs["ties"] = ((4, slice(0, 2)), [5.0, -5.0])
    if space.exponent == 1.0:
        needs["zero coordinate"] = ((1, 0), 0.0)
    norms = []
    monkeypatch.setattr(banach, "norm", lambda sp, x: norms.append(x) or _kernels_norm(sp, x))
    _, _, unique = banach._pairing_at(space, X, _kernels_norm(space, X))(H)
    assert norms == [] and unique.all()
    for what, (at, value) in needs.items():
        Y = X.copy()
        Y[at] = value
        want = _whole_pairing(space, Y, H)
        got = banach._pairing_at(space, Y, _kernels_norm(space, Y))(H)
        assert len(norms) == 1 and norms.pop() is H, what
        for g, w in zip(got, want):
            assert np.array_equal(g, w), what


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}-{s.exponent}")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["X", "H"])
def test_pairing_batch_rejects_non_finite_input(space, bad, name):
    # finite points and directions are the pairing's input contract
    rng = np.random.default_rng(4)
    batch = dict(zip("XH", rng.normal(size=(2, 5, space.dim))))
    batch[name][3, -1] = bad
    with pytest.raises(ContractError, match=rf"^{name}: non-finite value at node \(3,\)$"):
        banach.one_sided_norm_derivative_batch(space, batch["X"], batch["H"])
    with pytest.raises(ContractError, match=rf"^{name.lower()}: non-finite value at node \(\)$"):
        banach.one_sided_norm_derivative(space, batch["X"][3], batch["H"][3])


def _kernels_norm(space, x):
    return _kernels.row_norms(np.asarray(x, dtype=np.float64), space.exponent, space.weights)


@pytest.mark.xfail(strict=True, reason="the powers of the coordinates underflow to 0")
@pytest.mark.parametrize("space", [s for s in SPACES if 1.0 < s.exponent < math.inf],
                         ids=lambda s: f"{s.kind}-{s.exponent}")
def test_norm_of_tiny_vector_underflows(space):
    # a nonzero vector has a positive norm, but |x|^r of 1e-300 is 0
    assert banach.norm(space, np.full(space.dim, 1e-300)) > 0.0
