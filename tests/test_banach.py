"""Norm axioms, one-sided derivative pairings, and lattice operations.

Property checks run over seeded batches per space kind; the pairing values
are cross-checked against central finite differences of the norm on rows
where the norming functional is unique.
"""

import math

import numpy as np
import pytest

from sobolev_banach import banach
from sobolev_banach.errors import CapabilityError, DimensionMismatchError


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
        w = space.weights if space.weights is not None else np.ones(6)
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


def test_lattice_operations():
    rng = np.random.default_rng(107)
    sp = banach.SpaceDescriptor("FiniteLr", 5, 2.0)
    for _ in range(50):
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        assert np.array_equal(banach.lattice_abs(sp, v), np.abs(v))
        pos = banach.lattice_pos(sp, v)
        assert np.all(pos >= 0.0)
        assert np.array_equal(pos - banach.lattice_pos(sp, -v), v)
        sv = banach.sign_apply(sp, v, w)
        assert np.array_equal(np.abs(v), banach.sign_apply(sp, v, v))
        assert np.all(sv[v == 0.0] == 0.0)
        proj = banach.band_projection_disjoint(sp, v, w)
        assert np.all(proj[v != 0.0] == 0.0)
        assert np.array_equal(proj[v == 0.0], w[v == 0.0])


def test_lattice_requires_order():
    hil = banach.SpaceDescriptor("Hilbert", 3)
    with pytest.raises(CapabilityError):
        banach.lattice_abs(hil, np.ones(3))
    with pytest.raises(CapabilityError):
        banach.lattice_pos(hil, np.ones(3))
    with pytest.raises(CapabilityError):
        banach.sign_apply(hil, np.ones(3), np.ones(3))


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
    # Hilbert pins its exponent, SampledSup its sup norm
    assert banach.SpaceDescriptor("Hilbert", 3, 7.0).exponent == 2.0
    assert math.isinf(banach.SpaceDescriptor("SampledSup", 3, 2.0).exponent)


def test_vector_validation():
    sp = banach.SpaceDescriptor("Hilbert", 3)
    with pytest.raises(DimensionMismatchError):
        banach.norm(sp, np.ones(4))
    with pytest.raises(ValueError):
        banach.check_vec(sp, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(DimensionMismatchError):
        banach.one_sided_norm_derivative_batch(sp, np.ones((4, 3)), np.ones((5, 3)))
