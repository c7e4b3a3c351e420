"""The input contract of the public API: every name in ``sobolev_banach.__all__``
returns a result or raises the package's own ``ContractError``, whatever
value an argument is given, and arrays enter through ``errors.real_array``."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sobolev_banach as sb
from sobolev_banach import banach, calculus, gridfn
from sobolev_banach.errors import ContractError, DimensionMismatchError, check_finite, real_array

HUGE = 1e30
# None, a string, NaN, inf, -1, 0, a bool, 2.5, a complex number, a list, a
# 2-D array, an object, a complex vector, a float32, 1e30, an empty array and
# an int8 vector: each is a bad value for some argument and a good one for
# others
BAD = [None, "abc", math.nan, math.inf, -1, 0, True, 2.5, 1 + 2j, [1.0, 2.0],
       np.ones((2, 2)), object(), np.array([1 + 1j, 2.0]), np.float32(1.5), HUGE,
       np.array([]), np.array([1, 2], dtype=np.int8)]

BOX = gridfn.unit_box(2)
GRID = gridfn.GridSpec((4, 3))
HIL2 = banach.SpaceDescriptor("Hilbert", 2)
SPACES = [HIL2, banach.SpaceDescriptor("GridLr", 2, 3.0, [0.25, 0.75]),
          banach.SpaceDescriptor("SampledSup", 2), banach.SpaceDescriptor("FiniteLr", 2, 1.0)]
U = gridfn.sample(BOX, GRID, HIL2, lambda x: np.array([x[0] + 1.0, 2.0 * x[1]]))
FIELDS = [U, gridfn.from_scalar(gridfn.unit_box(1), gridfn.GridSpec((8,)), np.arange(8.0))]


def _value(*good):
    """An argument drawn from its good values and from every bad one."""
    return st.sampled_from(list(good) + BAD)


def _exponent():
    """An L^p exponent, drawn as ``_value`` draws but for 1e30, where |x|^p
    overflows: test_lp_norms_at_a_huge_exponent pins that (ROADMAP item 4)."""
    return st.sampled_from([1.0, 2, 3.5, math.inf] + [b for b in BAD if b is not HUGE])


# per name: the call, and a strategy per argument.  A grid function, box,
# grid or space argument is drawn from valid objects only: the contract is
# about the values (arrays, numbers, counts, names and rules) they are made of.
CALLS = {
    "BoxDomain": (sb.BoxDomain, dict(lo=_value([0.0, 0.0], np.zeros(2), 0.0, [-1, 0.5]),
                                     hi=_value([1.0, 1.0], np.ones(2), 1.0, [2, 3]))),
    "GridFunction": (lambda values: sb.GridFunction(BOX, GRID, HIL2, values),
                     dict(values=_value(U.values, np.zeros((4, 3, 2)), np.ones((4, 3, 2), int)))),
    "GridSpec": (sb.GridSpec, dict(n=_value((4, 4), 8, [3, 5], np.array([4, 4])))),
    "PairingResult": (sb.PairingResult, dict(plus=_value(1.0), minus=_value(-1.0),
                                             unique=_value(False))),
    "SpaceDescriptor": (sb.SpaceDescriptor, dict(
        kind=_value("FiniteLr", "SampledSup", "GridLr", "Hilbert"),
        dim=_value(1, 3, np.int64(2)),
        exponent=_value(1.0, 2, 3.5, math.inf),
        weights=_value(None, [0.5, 0.5, 1.0], np.ones(2)))),
    "apply_functional": (sb.apply_functional, dict(
        u=st.sampled_from(FIELDS), functional=_value([1.0, 0.0], np.array([0.5, -2.0]), [3]))),
    "bochner_norm": (sb.bochner_norm, dict(u=st.sampled_from(FIELDS), p=_exponent())),
    "boundary_norm": (sb.boundary_norm, dict(u=st.sampled_from(FIELDS))),
    "extend_reflect": (sb.extend_reflect, dict(u=st.sampled_from(FIELDS),
                                               pad=_value(1, 2, np.int64(3)))),
    "finite_difference": (sb.finite_difference, dict(u=st.sampled_from(FIELDS))),
    "from_scalar": (lambda values: sb.from_scalar(BOX, GRID, values),
                    dict(values=_value(np.zeros((4, 3)), np.arange(12).reshape(4, 3)))),
    "kernel_backend": (sb.kernel_backend, {}),
    "mollify": (sb.mollify, dict(u=st.sampled_from(FIELDS), level=_value(1, 2, 4))),
    "norm": (sb.norm, dict(space=st.sampled_from(SPACES),
                           x=_value([3.0, -4.0], np.ones((3, 2)), U.values))),
    "one_sided_norm_derivative": (sb.one_sided_norm_derivative, dict(
        space=st.sampled_from(SPACES), x=_value([1.0, 0.0], [0.0, 0.0], [3.0, -3.0]),
        h=_value([1.0, 0.0], [0.5, -2.0], np.zeros(2)))),
    "sample": (lambda value: sb.sample(BOX, gridfn.GridSpec((2, 3)), HIL2, lambda x: value),
               dict(value=_value([1.0, 2.0], np.zeros(2)))),
    "scalar_space": (sb.scalar_space, {}),
    "shift_difference_norm": (sb.shift_difference_norm, dict(
        u=st.sampled_from(FIELDS), j=_value(0, 1), steps=_value(1, 2, 3), p=_exponent())),
    "unit_box": (sb.unit_box, dict(d=_value(1, 2, 3))),
    "w_norm": (sb.w_norm, dict(u=st.sampled_from(FIELDS))),
}
API_EXAMPLES = 2000 if settings.get_current_profile_name() == "config-fuzz" else 40


def test_every_public_name_is_drawn():
    assert sorted(CALLS) == sorted(sb.__all__)


@pytest.mark.parametrize("name", sorted(CALLS))
@given(data=st.data())
@settings(derandomize=True, deadline=None, max_examples=API_EXAMPLES)
def test_public_api_returns_or_raises_contract_error(name, data):
    call, slots = CALLS[name]
    args = {slot: data.draw(strategy, label=slot) for slot, strategy in slots.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast that drops a part, an overflow
        try:
            call(**args)
        except ContractError:
            pass


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 4: |x|^p overflows at a huge exponent")
def test_lp_norms_at_a_huge_exponent():
    # at p = 1e30 an L^p norm on the unit box is the largest pointwise norm
    # to about 1e-30 relative; U's norms, and the 2-step differences of its
    # second coordinate along axis 1, exceed 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sb.bochner_norm(U, HUGE) == pytest.approx(np.max(gridfn.pointwise_norms(U)))
        assert sb.shift_difference_norm(U, 1, 2, HUGE) == pytest.approx(4.0 / 3.0)


def test_real_array_keeps_float64_input_and_its_memory_order():
    c = np.arange(6.0).reshape(2, 3)
    for a in (c, np.asfortranarray(c), c.T, c[:, ::2]):
        assert real_array("a", a) is a
    f = np.asfortranarray(np.arange(6).reshape(2, 3))
    got = real_array("f", f, (..., 3))
    assert got.dtype == np.float64 and got.flags.f_contiguous and not got.flags.c_contiguous
    assert np.array_equal(got, f)


@pytest.mark.parametrize("bad", [[1j, 2.0], [True], "1.0", [None], [[1.0], [1.0, 2.0]],
                                 np.array(["2020-01-01"], dtype="datetime64[D]")], ids=repr)
def test_real_array_rejects_what_is_not_real_numbers(bad):
    with pytest.raises(ContractError, match="^weights must be real numbers") as e:
        real_array("weights", bad)
    assert type(e.value) is ContractError


def test_real_array_shapes():
    assert real_array("x", np.ones((4, 5, 3)), (..., 3)).shape == (4, 5, 3)
    assert real_array("x", [1, 2, 3], (..., 3)).shape == (3,)
    for x, shape, expected in ((np.ones(3), (..., 2), "(..., 2)"), (5.0, (..., 1), "(..., 1)"),
                               (np.ones((1, 3)), (3,), "(3,)"), (np.ones(3), (3, 1), "(3, 1)")):
        message = rf"^x has shape {re.escape(str(np.shape(x)))}, expected {re.escape(expected)}$"
        with pytest.raises(DimensionMismatchError, match=message):
            real_array("x", x, shape)


def test_check_finite_names_the_node():
    assert check_finite("v", np.ones(3)).shape == (3,)
    for values, first, node in ((np.array([1.0, np.nan]), 0, r"\(\)"),
                                (np.array([[1.0, 1.0], [np.inf, 0.0]]), 5, r"\(6,\)"),
                                (np.array([[[1.0], [-np.inf]]]), 2, r"\(2, 1\)")):
        with pytest.raises(ContractError, match=rf"^v: non-finite value at node {node}$"):
            check_finite("v", values, first)


def test_grid_function_keeps_float64_values():
    for arr in (np.zeros((4, 3, 2)), np.asfortranarray(np.zeros((4, 3, 2)))):
        assert gridfn.GridFunction(BOX, GRID, HIL2, arr).values is arr
    ints = gridfn.GridFunction(BOX, GRID, HIL2, np.ones((4, 3, 2), dtype=np.int16))
    assert ints.values.dtype == np.float64


def test_a_single_vector_with_a_nan_is_rejected_by_name():
    # one_sided_norm_derivative's x and h: test_pairing_batch_rejects_non_finite_input
    lattice = banach.SpaceDescriptor("GridLr", 2, 2.0)
    u = gridfn.GridFunction(BOX, GRID, lattice, np.zeros((4, 3, 2)))
    bad = np.array([np.nan, 1.0])
    for call, name in ((lambda: banach.pairing_vector(lattice, bad), "functional"),
                       (lambda: sb.apply_functional(u, bad), "functional"),
                       (lambda: calculus.stampacchia_check(u, bad), "w")):
        with pytest.raises(ContractError, match=rf"^{name}: non-finite value at node \(\)$"):
            call()
