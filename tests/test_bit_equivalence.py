"""Bit-for-bit equivalence of the fast numeric paths with the plain
expressions they replace.

Each fast path performs the same floating-point operations in the same
order as a simpler formula (or reuses a value that formula computes), so
results are compared with ``np.array_equal``, never with a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_banach import _kernels, banach, calculus, counterexamples, gridfn, suite, theorems
from test_kernels import holder_max_ref

SPACES = [space for _, space in suite.KIND_SPECS] + [
    banach.SpaceDescriptor("FiniteLr", 3, exponent=math.inf),
    banach.SpaceDescriptor("GridLr", 4, exponent=2.5, weights=[0.1, 0.2, 0.3, 0.4]),
]


def _blueprint(space, d, seed):
    rng = np.random.default_rng(seed)
    shape = (space.dim, 2, d)
    return suite.SampleBlueprint(
        space=space,
        d=d,
        const=rng.normal(size=space.dim),
        amp_sin=rng.normal(size=shape),
        amp_cos=rng.normal(size=shape),
    )


def _realize_on_mesh(bp, n):
    """The blueprint formula evaluated on the full cell-center mesh."""
    dom = gridfn.unit_box(bp.d)
    grid = gridfn.GridSpec((n,) * bp.d)
    xi = gridfn.grid_centers(dom, grid)
    dim, K = bp.amp_sin.shape[:2]
    vals = np.broadcast_to(bp.const, grid.n + (dim,)).copy()
    for k in range(K):
        for j in range(bp.d):
            s = np.sin((k + 1) * np.pi * xi[..., j])[..., None]
            c = np.cos((k + 1) * np.pi * xi[..., j])[..., None]
            vals = vals + s * bp.amp_sin[:, k, j] + c * bp.amp_cos[:, k, j]
    return vals


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [3, 32, 512])
@pytest.mark.parametrize("kind", [name for name, _ in suite.KIND_SPECS])
def test_realize_matches_mesh_formula(kind, n, d):
    space = dict(suite.KIND_SPECS)[kind]
    bp = _blueprint(space, d, seed=n + 10 * d)
    assert np.array_equal(bp.realize(n).values, _realize_on_mesh(bp, n))


@pytest.mark.parametrize("n", [3, 16])
def test_realize_matches_mesh_formula_in_3d(n):
    # the head sums the axis-0 terms on that axis, the other axes broadcast
    bp = _blueprint(dict(suite.KIND_SPECS)["gridlr3"], 3, seed=n)
    assert np.array_equal(bp.realize(n).values, _realize_on_mesh(bp, n))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}-{s.exponent}")
def test_pairing_batch_hnorm_is_direction_norm(space):
    # the direction norms |h| the batch computes are banach.norm's: they
    # are the pairings at x = 0 and scale the uniqueness tolerance
    rng = np.random.default_rng(3)
    X = rng.normal(size=(257, space.dim))
    X[:5] = 0.0
    H = rng.normal(size=(257, space.dim))
    plus, minus, unique = banach.one_sided_norm_derivative_batch(space, X, H)
    hnorm = banach.norm(space, H)
    assert np.array_equal(plus[:5], hnorm[:5])
    assert np.array_equal(minus[:5], -hnorm[:5])
    assert np.array_equal(unique, (plus - minus) <= banach.PAIR_TOL * (1.0 + hnorm))


@pytest.mark.parametrize("d,n", [(1, 64), (2, 33), (3, 9)])
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}-{s.exponent}")
def test_row_norms_reshaped_match_pointwise_norms(space, d, n):
    # norm_derivative_field builds its pointwise-norm function from the
    # row norms it already has; they must be the pointwise norms exactly.
    u = _blueprint(space, d, seed=d).realize(n)
    nx = np.asarray(banach.norm(space, u.values.reshape(-1, space.dim)))
    assert np.array_equal(nx.reshape(u.grid.n), gridfn.pointwise_norms(u))


def _difference_expressions(u):
    """Interior stencil of ``finite_difference`` as a plain expression."""
    d = u.domain.d
    h = u.grid.spacing(u.domain)
    v = u.values
    out = []
    for j in range(d):
        S = lambda a, b: gridfn._axis_slices(d, j, slice(a, b))
        out.append((S(1, -1), (v[S(2, None)] - v[S(0, -2)]) / (2.0 * h[j])))
    return out


@pytest.mark.parametrize("d,n", [(1, 3), (1, 100), (2, 17), (3, 6)])
def test_finite_difference_interior_matches_expression(d, n):
    u = _blueprint(suite.KIND_SPECS[3][1], d, seed=n).realize(n)
    field = gridfn.finite_difference(u)
    for j, (inner, want) in enumerate(_difference_expressions(u)):
        assert np.array_equal(field[j].values[inner], want)


@pytest.mark.parametrize("N", [1, 128, 129, 511, 512, 513, 1500, 10000])
def test_blocked_c0_lipschitz_matches_dense(N):
    ts = np.linspace(0.0, 3.0, 601)
    n = np.arange(1, N + 1)
    dense = np.max(np.abs(np.diff(np.sin(np.outer(ts, n)) / n, axis=0)))
    assert counterexamples._path_lipschitz(ts, N) == dense


def _unpruned_path_lipschitz(ts, N):
    """``_path_lipschitz`` before its early stop: every block of 512
    coordinates swept."""
    lip = 0.0
    for start in range(1, N + 1, 512):
        n = np.arange(start, min(start + 512, N + 1))
        vals = np.sin(np.outer(ts, n)) / n
        lip = max(lip, float(np.max(np.abs(np.diff(vals, axis=0)))))
    return lip


class _CountingNumpy:
    """numpy, with a count of the calls to ``sin`` (one per swept block)."""

    def __init__(self):
        self.sines = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, *args, **kwargs):
        self.sines += 1
        return np.sin(*args, **kwargs)


C0_GRIDS = {
    # the witness's own grid: the first block's maximum prunes the rest
    "witness": np.linspace(0.0, 3.0, 601),
    # a few wide steps: later blocks are pruned too
    "coarse": np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 40)),
    # steps below 1e-7: every maximum stays under 2/start, nothing is pruned
    "fine": np.linspace(1.0, 1.0 + 1e-5, 101),
}


@pytest.mark.parametrize("N", [1, 128, 129, 511, 512, 513, 10000])
@pytest.mark.parametrize("grid", sorted(C0_GRIDS))
def test_pruned_c0_lipschitz_matches_unpruned_sweep(grid, N, monkeypatch):
    ts = C0_GRIDS[grid]
    want = _unpruned_path_lipschitz(ts, N)
    counting = _CountingNumpy()
    monkeypatch.setattr(counterexamples, "np", counting)
    assert counterexamples._path_lipschitz(ts, N) == want
    blocks = -(-N // counterexamples.C0_BLOCK)
    if grid == "fine":
        assert counting.sines == blocks
    elif grid == "witness":
        # the pruning is not vacuous: the sweep stops at coordinate 513
        assert counting.sines == min(blocks, 512 // counterexamples.C0_BLOCK)
    else:
        assert counting.sines < blocks or blocks == 1


def _ck_contrast_reference(n_t, m):
    """The C(K) witness's per-time-row L^2 contrast as the whole-grid
    expression, in separate full-size buffers."""
    tc = (np.arange(n_t) + 0.5) / n_t
    rc = (np.arange(m) + 0.5) / m
    U = rc[None, :] - tc[:, None]
    u = gridfn.GridFunction(
        gridfn.unit_box(1), gridfn.GridSpec((n_t,)),
        banach.SpaceDescriptor("GridLr", m, exponent=2.0), U,
    )
    D = gridfn.finite_difference(u)[0].values
    pos_field = np.where(U > 0.0, D, 0.0)
    fd_pos = gridfn.finite_difference(u.like(np.maximum(U, 0.0)))[0].values
    diff = pos_field - fd_pos
    return np.sqrt(np.mean(diff * diff, axis=1))


def _ck_contrast_error(per_t):
    return float(np.sqrt(np.mean(per_t[1:-1] ** 2)))


def test_ck_contrast_matches_separate_buffers():
    w = counterexamples.ck_pospart_witness()
    per_t = _ck_contrast_reference(*counterexamples.CK_CONTRAST_SHAPE)
    assert w.details["l2_contrast_error"] == _ck_contrast_error(per_t)


@pytest.mark.parametrize("shape", [counterexamples.CK_CONTRAST_SHAPE, (3, 9), (4, 5), (7, 3)])
def test_ck_contrast_in_three_row_blocks(monkeypatch, shape):
    n_t, m = shape
    want = _ck_contrast_reference(n_t, m)
    monkeypatch.setattr(_kernels, "NODE_BLOCK", 1)  # blocks of two or three time rows
    blocks = _kernels.node_blocks(n_t, m)
    assert len(blocks) == -(-n_t // 3) and {b.stop - b.start for b in blocks} <= {2, 3}
    # every row, the one-sided first and last time rows included
    assert np.array_equal(counterexamples._pos_contrast_rows(n_t, m), want)
    if shape == counterexamples.CK_CONTRAST_SHAPE:
        w = counterexamples.ck_pospart_witness()
        assert w.details["l2_contrast_error"] == _ck_contrast_error(want)


@pytest.mark.parametrize("refine", [0, 2])
@pytest.mark.parametrize("kind", [name for name, _ in suite.KIND_SPECS])
def test_holder_max_matches_scan_on_members(kind, refine):
    # morrey_d1's sizes: corpus members on 512 * 2**refine nodes, the
    # seminorm on a 1024-node subsample and on the full grid
    n = 512 * 2**refine
    space = dict(suite.KIND_SPECS)[kind]
    rng = np.random.default_rng(refine)
    bp = next(bp for bp in suite.corpus_blueprints(rng) if bp.d == 1 and bp.space == space)
    r = space.exponent
    w = space.weights
    u = bp.realize(n)
    P = gridfn.grid_centers(u.domain, u.grid).reshape(-1, 1)
    V = u.values.reshape(-1, space.dim)
    sub = np.sort(rng.choice(n, size=min(n, 1024), replace=False))
    for idx in (sub, slice(None)):
        got = _kernels.holder_max(V[idx], P[idx], 0.5, r, w)
        assert got == holder_max_ref(V[idx], P[idx], 0.5, r, w)


@pytest.mark.parametrize("kind", [name for name, _ in suite.KIND_SPECS])
def test_holder_max_matches_scan_with_a_jump_at_the_last_node(kind):
    # a jump at node n-1 can put the maximum at the last pair, the one
    # pair that is a lone row of the scan
    space = dict(suite.KIND_SPECS)[kind]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for bp in suite.corpus_blueprints(rng):
            if bp.d != 1 or bp.space != space:
                continue
            u = bp.realize(64)
            P = gridfn.grid_centers(u.domain, u.grid).reshape(-1, 1)
            V = u.values.reshape(-1, space.dim).copy()
            V[-1] += 5.0 * rng.normal(size=space.dim)
            got = _kernels.holder_max(V, P, 0.5, space.exponent, space.weights)
            assert got == holder_max_ref(V, P, 0.5, space.exponent, space.weights), seed


# The three Lp helpers folded into ``gridfn._lp``, as they were written.


def _old_scalar_lp(node_values, cell_volume, p):
    if math.isinf(p):
        return float(np.max(node_values))
    if p == 1.0:
        return float(np.sum(node_values) * cell_volume)
    return float((np.sum(node_values**p) * cell_volume) ** (1.0 / p))


def _old_lp_of(g, vol, p):
    if g.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(g))
    return float((np.sum(np.abs(g) ** p) * vol) ** (1.0 / p))


def _old_lp_vec(a, p):
    if math.isinf(p):
        return float(np.max(np.abs(a)))
    return float(np.sum(np.abs(a) ** p) ** (1.0 / p))


LP_EXPONENTS = [1.0, 2.0, 3.5, math.inf]


@pytest.mark.parametrize("p", LP_EXPONENTS)
@pytest.mark.parametrize("d,n", [(1, 2), (1, 1000), (2, 33), (3, 9)])
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}-{s.exponent}")
def test_lp_matches_quadrature_forms(space, d, n, p):
    u = _blueprint(space, d, seed=n + d).realize(n)
    g = gridfn.pointwise_norms(u)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    assert gridfn._lp(g, vol, p) == _old_scalar_lp(g, vol, p)
    assert gridfn._lp(g, vol, p) == _old_lp_of(g, vol, p)
    # calculus applied it to norms selected by a node mask
    kept = g[g > np.median(g)]
    assert gridfn._lp(kept, vol, p) == _old_lp_of(kept, vol, p)
    if p == 1.0:
        # the L^1 errors of the derivative fields were summed inline
        assert gridfn._lp(g, vol, p) == float(np.sum(g) * vol)
        assert gridfn._lp(kept, vol, p) == float(np.sum(kept) * vol)


@pytest.mark.parametrize("p", LP_EXPONENTS)
@pytest.mark.parametrize("size", [1, 7, 200, 5000])
def test_lp_matches_counting_form(size, p):
    a = np.random.default_rng(size).normal(size=size)
    a[0] = -abs(a[0])
    assert gridfn._lp(a, 1.0, p) == _old_lp_vec(a, p)


def test_lp_of_nothing_is_zero():
    empty = np.zeros(0)
    for p in LP_EXPONENTS:
        assert gridfn._lp(empty, 0.5, p) == _old_lp_of(empty, 0.5, p) == 0.0


def test_bump_of_square_matches_unsquared_form():
    x = np.concatenate([
        np.linspace(-1.5, 1.5, 30001),
        [np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0, -1.0, 0.0],
        np.nextafter(1.0, 0.0) - np.arange(1, 50) * 2.0**-53,
    ])
    old = np.zeros_like(x)
    m = np.abs(x) < 1.0
    old[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    assert np.array_equal(gridfn._bump(x * x), old)
    # the supports agree: |x| < 1 exactly when x*x < 1
    assert np.array_equal(x * x < 1.0, m)


# The derivative-field producers compare through ``calculus._compare``.
# Each reference below is the comparison as the producer wrote it inline
# before: its own cell volume, interior mask, finite difference and node
# mask (flat where the producer worked on flat rows).

FIELD_CASES = dict(derandomize=True, max_examples=50, deadline=None)
LATTICE_SPACES = [s for s in SPACES if s.lattice_capable and s.order_continuous]


@st.composite
def field_cases(draw, spaces=SPACES):
    space = draw(st.sampled_from(spaces))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3, 24 if d == 1 else 9))
    seed = draw(st.integers(0, 2**16))
    u = _blueprint(space, d, seed).realize(n)
    # exact zeros exercise the flagged and zero-set branches
    zeros = draw(st.integers(0, 2))
    u.values.reshape(-1, space.dim)[:zeros] = 0.0
    return u, seed


def _scalar(u, seed):
    return _blueprint(banach.scalar_space(), u.domain.d, seed + 1).realize(u.grid.n[0])


def _l1_rows(rep):
    return [v for k, v in rep.rows if k.startswith("l1_err[")]


def _running_sum(errs):
    total = 0.0
    for e in errs:
        total += e
    return total


@given(field_cases())
@settings(**FIELD_CASES)
def test_norm_derivative_errors_match_inline_form(case):
    u, _ = case
    res = calculus.norm_derivative_field(u)
    g = gridfn.pointwise_norm_function(u)
    dg = gridfn.finite_difference(g)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    inner = gridfn.interior_mask(u.grid).ravel()
    want = []
    for j in range(u.domain.d):
        ok = (~res.flags[j].ravel()) & inner
        value = res.fields[j].values.reshape(-1)
        want.append(gridfn._lp(np.abs(value - dg[j].values.reshape(-1))[ok], vol, 1.0))
    assert _l1_rows(res.report) == want
    assert res.report.details["l1_err_total"] == _running_sum(want)


@given(field_cases(LATTICE_SPACES))
@settings(**FIELD_CASES)
def test_lattice_errors_match_inline_form(case):
    u, _ = case
    vol = float(np.prod(u.grid.spacing(u.domain)))
    inner = gridfn.interior_mask(u.grid)
    D = gridfn.finite_difference(u)
    for res, target in (
        (calculus.abs_derivative_field(u), u.like(np.abs(u.values))),
        (calculus.pos_derivative_field(u), u.like(np.maximum(u.values, 0.0))),
    ):
        dt = gridfn.finite_difference(target)
        want = []
        for j in range(u.domain.d):
            ok = (~res.flags[j]) & inner
            defect = banach.norm(u.space, res.fields[j].values - dt[j].values)
            want.append(gridfn._lp(np.asarray(defect)[ok], vol, 1.0))
        assert _l1_rows(res.report) == want
        assert res.report.details["l1_err_total"] == _running_sum(want)
    # u+ field = (|u| field + D u)/2 off the zero set, bit for bit
    av = calculus.abs_derivative_field(u).fields
    pv = calculus.pos_derivative_field(u).fields
    nz = u.values != 0.0
    for j in range(u.domain.d):
        half = 0.5 * (av[j].values + D[j].values)
        assert np.array_equal(pv[j].values[nz], half[nz])


@given(field_cases())
@settings(**FIELD_CASES)
def test_quotient_rule_errors_match_inline_form(case):
    u, seed = case
    phi_hat = _scalar(u, seed)
    phi_hat = phi_hat.like(np.abs(phi_hat.values))
    v, res = calculus.quotient_rule_field(u, phi_hat)
    dv = gridfn.finite_difference(v)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    inner = gridfn.interior_mask(u.grid)
    want = []
    for j in range(u.domain.d):
        ok = ~res.flags[j] & inner
        defect = np.asarray(banach.norm(u.space, res.fields[j].values - dv[j].values))
        want.append(gridfn._lp(defect[ok], vol, 1.0))
    assert _l1_rows(res.report) == want
    assert res.report.details["l1_err_total"] == _running_sum(want)


@given(field_cases())
@settings(**FIELD_CASES)
def test_gateaux_errors_match_inline_form(case):
    u, _ = case
    p = gridfn.SOBOLEV_P
    F = calculus.norm_lipschitz_map(u.space)
    res = calculus.gateaux_chain_field(F, u)
    X = u.values.reshape(-1, u.space.dim)
    du = gridfn.finite_difference(u)
    v = gridfn.GridFunction(
        u.domain, u.grid, F.target, F.apply_batch(X).reshape(u.grid.n + (1,))
    )
    dv = gridfn.finite_difference(v)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    inner = gridfn.interior_mask(u.grid).ravel()
    for j in range(u.domain.d):
        V = du[j].values.reshape(-1, u.space.dim)
        plus, minus = F.onesided_batch(X, V)
        gap = np.asarray(banach.norm(F.target, plus - minus))
        unique = gap <= banach.PAIR_TOL * (1.0 + np.asarray(banach.norm(u.space, V)))
        assert np.array_equal(res.flags[j], ~unique.reshape(u.grid.n))
        fd = dv[j].values.reshape(-1, F.target.dim)
        ok = unique & inner
        side = res.report.details["directions"][j]
        for key, field in (("err_plus", plus), ("err_minus", minus)):
            defect = np.asarray(banach.norm(F.target, field - fd))
            assert side[key] == gridfn._lp(defect[ok], vol, p)
        assert side["pm_gap_lp"] == gridfn._lp(gap, vol, p)


@given(field_cases())
@settings(**FIELD_CASES)
def test_product_rule_rows_match_inline_form(case):
    u, seed = case
    psi = _scalar(u, seed)
    rep = calculus.product_rule_check(u, psi)
    dprod = gridfn.finite_difference(u.like(u.values * psi.values))
    du = gridfn.finite_difference(u)
    dpsi = gridfn.finite_difference(psi)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    inner = gridfn.interior_mask(u.grid)
    h = u.grid.spacing(u.domain)
    want = []
    for j in range(u.domain.d):
        rhs = dpsi[j].values * u.values + psi.values * du[j].values
        defect = np.asarray(banach.norm(u.space, dprod[j].values - rhs))
        want.append((float(h[j]), gridfn._lp(defect[inner], vol, 1.0)))
    assert rep.rows == want


# Short last axes are reduced column by column (``_kernels.row_reduce``);
# the reference is numpy's own reduce of that axis.

SHORT_AXIS_CASES = dict(derandomize=True, max_examples=200, deadline=None)


@st.composite
def short_axis_arrays(draw):
    k = draw(st.integers(1, 12))
    lead = draw(st.lists(st.integers(1, 40), min_size=0, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(lead) + (k,)
    a = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.uniform(-5.0, 5.0, size=shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided" and a.ndim > 1:
        a = a[::2]
    return a


@given(short_axis_arrays())
@settings(**SHORT_AXIS_CASES)
def test_row_reduce_matches_numpy_reduce(a):
    # lengths 1-7 take the column fold, lengths 8-12 numpy's own reduce (a
    # column fold rounds differently there); both must give numpy's values,
    # signed zeros included
    for op, want in (
        (np.add, a.sum(axis=-1)),
        (np.maximum, a.max(axis=-1)),
        (np.minimum, a.min(axis=-1)),
    ):
        got = _kernels.row_reduce(a, op)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# The node-block passes against the whole-array expressions they replaced,
# as they were written (numpy's own last-axis reductions, one pass over all
# nodes), with NODE_BLOCK small so that several blocks run.

# two spaces beyond the catalog's: a sup norm of 9 coordinates, which
# ``row_reduce`` leaves to numpy's own reduce, and FiniteLr of 4
# coordinates, where ``row_norms``'s ``@ ones`` rounds differently from a
# left-to-right sum, so a norm summed any other way shows
BLOCK_SPACES = SPACES + [
    banach.SpaceDescriptor("SampledSup", 9),
    banach.SpaceDescriptor("FiniteLr", 4, exponent=2.5),
]


@pytest.mark.parametrize("d,n", [(1, 64), (2, 8)])
@pytest.mark.parametrize("space", BLOCK_SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
def test_holder_beta_numerators_are_banach_norms(space, d, n):
    # the Hölder seminorm is the all-pairs scan of banach.norm's quotients;
    # over these seeds the maximum sits on a FiniteLr dim-4 row that a
    # left-to-right sum rounds differently
    for seed in range(12):
        u = _blueprint(space, d, seed).realize(n)
        P = gridfn.grid_centers(u.domain, u.grid).reshape(-1, d)
        V = u.values.reshape(-1, space.dim)
        for alpha in (0.5, 1.0):
            best = 0.0
            for i in range(len(V) - 1):
                dn = np.asarray(banach.norm(space, V[i + 1 :] - V[i]))
                sep = P[i + 1 :] - P[i]
                best = max(best, float((dn / (sep * sep).sum(axis=1) ** (0.5 * alpha)).max()))
            assert calculus.holder_beta(u, alpha) == best, (seed, alpha)


def _whole_norm(space, x):
    """The norm's expression over the whole array x; a lone row is summed as
    a row of a batch is, as row 0 of the row stacked twice."""
    if math.prod(x.shape[:-1]) == 1:
        return _whole_norm(space, np.vstack([x.reshape(1, -1)] * 2))[:1].reshape(x.shape[:-1])
    if space.sup_like:
        return np.abs(x).max(axis=-1)
    r = space.exponent
    w = space.weights
    if r == 1.0:
        return np.abs(x) @ w
    if r == 2.0:
        return np.sqrt((x * x) @ w)
    return (np.abs(x) ** r @ w) ** (1.0 / r)


def _whole_pairing(space, X, H):
    hnorm = _whole_norm(space, H)
    if space.sup_like:
        ax = np.abs(X)
        nx = ax.max(axis=1)
        tie = ax >= (nx * (1.0 - banach.TIE_REL))[:, None]
        cand = np.where(X > 0.0, H, -H)
        plus = np.where(tie, cand, -np.inf).max(axis=1)
        minus = np.where(tie, cand, np.inf).min(axis=1)
        zero = nx == 0.0
    else:
        w = space.weights
        if space.exponent == 1.0:
            base = (np.sign(X) * H) @ w
            zero_part = (np.abs(H) * (X == 0.0)) @ w
            plus, minus, zero = base + zero_part, base - zero_part, False
        else:
            nx = _whole_norm(space, X)
            grad = _kernels.lr_gradient(X, space.exponent, nx)
            val = _kernels.lr_pairing(X, H, space.exponent, w, grad)
            plus, minus, zero = val, val, nx == 0.0
    plus, minus = np.where(zero, hnorm, plus), np.where(zero, -hnorm, minus)
    return plus, minus, (plus - minus) <= banach.PAIR_TOL * (1.0 + hnorm)


def _whole_realize(bp, n):
    """``SampleBlueprint.realize`` as it was: every term added to the
    whole node array."""
    dom = gridfn.unit_box(bp.d)
    grid = gridfn.GridSpec((n,) * bp.d)
    axes = grid.axes(dom)
    dim, K = bp.amp_sin.shape[:2]
    vals = np.broadcast_to(bp.const, grid.n + (dim,)).copy()
    for k in range(K):
        for j in range(bp.d):
            shape = [1] * (bp.d + 1)
            shape[j] = n
            arg = (k + 1) * np.pi * axes[j]
            vals += np.sin(arg).reshape(shape) * bp.amp_sin[:, k, j]
            vals += np.cos(arg).reshape(shape) * bp.amp_cos[:, k, j]
    return vals


def _whole_finite_difference(u):
    """``finite_difference`` as it was: each axis's stencils over the
    whole node array."""
    d = u.domain.d
    h = u.grid.spacing(u.domain)
    v = u.values
    fields = []
    for j in range(d):
        dv = np.empty_like(v)
        S = lambda a, b: gridfn._axis_slices(d, j, slice(a, b))
        inner = dv[S(1, -1)]
        np.subtract(v[S(2, None)], v[S(0, -2)], out=inner)
        inner /= 2.0 * h[j]
        dv[S(0, 1)] = (-3.0 * v[S(0, 1)] + 4.0 * v[S(1, 2)] - v[S(2, 3)]) / (2.0 * h[j])
        dv[S(-1, None)] = (3.0 * v[S(-1, None)] - 4.0 * v[S(-2, -1)] + v[S(-3, -2)]) / (
            2.0 * h[j]
        )
        fields.append(dv)
    return fields


def _whole_fd_errors(target, fields, flags, p=1.0):
    """``calculus._compare(...).errors(p)`` as it was: whole-array
    differences and norms."""
    vol = float(np.prod(target.grid.spacing(target.domain)))
    inner = gridfn.interior_mask(target.grid)
    return [
        gridfn._lp(np.asarray(banach.norm(target.space, f.values - dt))[inner & ~flag], vol, p)
        for f, dt, flag in zip(fields, _whole_finite_difference(target), flags)
    ]


def _whole_norm_derivative_field(u):
    du = _whole_finite_difference(u)
    X = u.values.reshape(-1, u.space.dim)
    nx = _whole_norm(u.space, X)
    near_zero = nx <= banach.ZERO_TOL * (1.0 + nx)
    fields, flags = [], []
    for j in range(u.domain.d):
        plus, minus, unique = _whole_pairing(u.space, X, du[j].reshape(X.shape))
        value = np.where(unique, plus, 0.5 * (plus + minus))
        value = np.where(nx == 0.0, 0.0, value)
        fields.append(value.reshape(u.grid.n))
        flags.append(((~unique) | near_zero).reshape(u.grid.n))
    g = gridfn.from_scalar(u.domain, u.grid, nx.reshape(u.grid.n))
    as_fields = [gridfn.from_scalar(u.domain, u.grid, f) for f in fields]
    return fields, flags, _whole_fd_errors(g, as_fields, flags)


def _whole_shift_difference_norm(u, j, steps, p):
    d = u.domain.d
    diff = (
        u.values[gridfn._axis_slices(d, j, slice(steps, None))]
        - u.values[gridfn._axis_slices(d, j, slice(0, -steps))]
    )
    vol = float(np.prod(u.grid.spacing(u.domain)))
    return gridfn._lp(_whole_norm(u.space, diff), vol, p)


def _whole_mollify(u, level):
    offsets, w = gridfn.mollifier_weights(u.grid.spacing(u.domain), level)
    pad = int(np.abs(offsets).max())
    ext = gridfn.extend_reflect(u, pad).values
    n = u.grid.n
    out = u.values.copy()
    for k, wk in zip(offsets, w):
        if np.any(k):
            sl = tuple(slice(pad + k[j], pad + k[j] + n[j]) for j in range(len(n)))
            out += wk * (ext[sl] - u.values)
    return out


@st.composite
def block_cases(draw):
    space = draw(st.sampled_from(BLOCK_SPACES))
    d = draw(st.sampled_from([1, 2]))
    rows = draw(st.integers(3, 6))  # rows of one node block
    # n = rows * k + 1 leaves one row over, on each axis and in the flat
    # node count, for a pass that cut fixed blocks of ``rows`` rows
    n = rows * draw(st.integers(2, 8) if d == 1 else st.integers(1, 3)) + draw(st.integers(0, 2))
    n = max(n, 4)
    u = _blueprint(space, d, draw(st.integers(0, 2**16))).realize(n)
    flat = u.values.reshape(-1, space.dim)
    flat[: draw(st.integers(0, 2))] = 0.0  # exact zeros: the x = 0 pairing
    tied = draw(st.integers(0, 3))  # ties of the sup norm's norming coordinates
    if tied:
        flat[-tied:, 1] = -flat[-tied:, 0]
    return u, rows, draw(st.sampled_from(LP_EXPONENTS))


@given(block_cases())
@settings(**FIELD_CASES)
def test_blocked_passes_match_whole_array_expressions(case):
    u, rows, p = case
    dim, n = u.space.dim, u.grid.n[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "NODE_BLOCK", rows * dim)
        X = u.values.reshape(-1, dim)
        blocks = _kernels.node_blocks(len(X), dim)
        assert len(blocks) > 1
        whole = _whole_norm(u.space, X)
        assert np.array_equal(banach.norm(u.space, X), whole)
        assert np.array_equal(banach.norm(u.space, u.values), whole.reshape(u.grid.n))
        for blk in blocks:
            assert np.array_equal(banach.norm(u.space, X[blk]), whole[blk])

        for j in range(u.domain.d):
            for steps in sorted({1, 2, n - 1}):
                got = gridfn.shift_difference_norm(u, j, steps, p)
                assert got == _whole_shift_difference_norm(u, j, steps, p)

        level = max(1, n // 3)  # a support of two or three cells per side
        assert np.array_equal(gridfn.mollify(u, level).values, _whole_mollify(u, level))

        res = calculus.norm_derivative_field(u)
        fields, flags, errs = _whole_norm_derivative_field(u)
        for j in range(u.domain.d):
            assert np.array_equal(res.fields[j].values[..., 0], fields[j])
            assert np.array_equal(res.flags[j], flags[j])
        rows_want = []
        for j, err in enumerate(errs):
            rows_want += [(f"l1_err[{j}]", err), (f"flagged_fraction[{j}]", float(np.mean(flags[j])))]
        assert res.report.rows == rows_want
        assert res.report.details["l1_err_total"] == _running_sum(errs)


def _check_report_matches_field(space, d, n, rows, seed):
    """Checks the report pass, which keeps no field and settles each block
    as it forms it, against the field pass in node blocks of about
    ``rows`` first-axis rows; returns the block lengths."""
    u = _blueprint(space, d, seed).realize(n)
    width = u.values[0].size
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "NODE_BLOCK", rows * width)
        blocks = _kernels.node_blocks(n, width)
        # on each edge row of each block: an exact zero, a near-zero node
        # (flagged), or ties of the sup norm and a zero coordinate of the
        # ell^1 norm (flagged pairings there)
        for k, blk in enumerate(blocks):
            for e, r in enumerate((blk.start, blk.stop - 1)):
                node_row = u.values[r].reshape(-1, space.dim)
                node = node_row[rng.integers(len(node_row))]
                kind = (k + e) % 3
                if kind == 0:
                    node[:] = 0.0
                elif kind == 1:
                    node *= 1e-12
                else:
                    node[1] = -node[0]
                    node[2:] = 0.0
        want = calculus.norm_derivative_field(u)
        got = calculus.norm_derivative_report(u)
    assert any(f.any() for f in want.flags)
    assert (got.name, got.verdict) == (want.report.name, want.report.verdict)
    assert got.rows == want.report.rows
    assert got.details == want.report.details
    _, _, errs = _whole_norm_derivative_field(u)
    assert _l1_rows(got) == errs
    return {blk.stop - blk.start for blk in blocks}


@given(
    st.sampled_from(SPACES), st.sampled_from([1, 2]), st.integers(3, 20),
    st.sampled_from([3, 4]), st.integers(0, 2**16),
)
@settings(**FIELD_CASES)
def test_norm_derivative_report_matches_field_report(space, d, n, rows, seed):
    # node blocks of 2 to 4 rows put many rows on a block edge
    if d == 2:
        n = 3 + n % 8
    _check_report_matches_field(space, d, n, rows, seed)


@given(
    st.sampled_from(suite.KIND_SPECS), st.sampled_from([1, 2]), st.integers(3, 40),
    st.data(), st.integers(0, 2**16),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_row_writer_writes_the_realized_rows(kind, d, n, data, seed):
    # any rows [a, b), not only node blocks: every node has one expression
    _, space = kind
    bp = _blueprint(space, d, seed)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a + 1, n))
    out = np.full((b - a,) + (n,) * (d - 1) + (space.dim,), np.nan)
    assert bp.row_writer(n)(a, b, out) is out
    assert np.array_equal(out, bp.realize(n).values[a:b])


@given(st.integers(0, 2**16), st.sampled_from([2, 3, 4]))
@settings(derandomize=True, max_examples=6, deadline=None)
def test_norm_derivative_report_of_a_blueprint_matches_field_report(seed, rows):
    # the member is realized one window at a time: a block of about
    # ``rows`` first-axis rows and a halo row on each side
    for n in (3, 4, 5, 17, 64):
        for bp in suite.corpus_blueprints(np.random.default_rng(seed)):
            width = n ** (bp.d - 1) * bp.space.dim
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, "NODE_BLOCK", rows * width)
                got = calculus.norm_derivative_report(bp, n)
                want = calculus.norm_derivative_field(bp.realize(n)).report
            assert (got.name, got.verdict) == (want.name, want.verdict)
            assert got.rows == want.rows
            assert got.details == want.details


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
def test_norm_derivative_report_matches_field_report_in_every_kind(space, d):
    # blocks of three rows over n = 5, 7, 8, no multiple of three: node_blocks
    # evens them out into blocks of both two and three rows
    for n in (5, 7, 8):
        assert _check_report_matches_field(space, d, n, 3, seed=10 * n + d) == {2, 3}


@given(block_cases(), st.integers(0, 2**16))
@settings(**FIELD_CASES)
def test_streamed_fd_errors_match_whole_array_form(case, seed):
    # the comparison settles one node block of fields and flags at a time
    u, rows, p = case
    rng = np.random.default_rng(seed)
    near = [u.like(D + 1e-3 * rng.normal(size=D.shape)) for D in _whole_finite_difference(u)]
    flags = [rng.random(u.grid.n) < 0.3 for _ in range(u.domain.d)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "NODE_BLOCK", rows * u.space.dim)
        assert len(_kernels.node_blocks(len(u.values), u.values[0].size)) > 1
        got = calculus._compare(u, near, flags).errors(p)
    assert got == _whole_fd_errors(u, near, flags, p)


def _cover_family(space, members, order):
    """Members on 32 nodes: realized blueprints (C order), or, as the
    library-large family is built, ``(coef @ basis).T`` (F order)."""
    if order == "C":
        return [_blueprint(space, 1, seed).realize(32) for seed in range(members)]
    x = (np.arange(32) + 0.5) / 32
    basis = np.stack([np.ones_like(x), np.sin(np.pi * x), np.sin(2 * np.pi * x)])
    coef = np.random.default_rng(members).normal(size=(members, space.dim, 3))
    dom, grid = gridfn.unit_box(1), gridfn.GridSpec((32,))
    return [gridfn.GridFunction(dom, grid, space, (c @ basis).T) for c in coef]


@pytest.mark.parametrize("members", [1, 2, 3, 4, 7, 16, 30])
@pytest.mark.parametrize("space", BLOCK_SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
def test_covering_distances_match_stacked_form(space, members, monkeypatch):
    _check_covering_distances(space, members, "C", monkeypatch)


@pytest.mark.parametrize("members", [1, 2, 3, 4, 7, 16, 30])
@pytest.mark.parametrize("space", BLOCK_SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
def test_covering_distances_match_stacked_form_in_f_order(space, members, monkeypatch):
    # the row sums of F-ordered differences round differently from those of
    # a C-ordered copy; a block stack keeps the F order, as the whole does
    _check_covering_distances(space, members, "F", monkeypatch)


def _check_covering_distances(space, members, order, monkeypatch):
    # covering_counts computes its distances one pair of tiles of three
    # members at a time; the matrix it hands to the traversal is the one of
    # the whole stack, from a list or from a family built when it is read
    p = gridfn.SOBOLEV_P
    fam = _cover_family(space, members, order)
    assert all(f.values.flags[f"{order}_CONTIGUOUS"] for f in fam)
    built = theorems.Built(members, lambda k: fam[k].like(fam[k].values.copy(order="K")))
    assert built[0].values.flags[f"{order}_CONTIGUOUS"]
    seen = []
    monkeypatch.setattr(_kernels, "NODE_BLOCK", 3 * 32 * space.dim)
    monkeypatch.setattr(_kernels, "greedy_radii", lambda D: seen.append(D) or np.zeros(len(D)))
    theorems.covering_counts(fam, p, (0.5,))
    theorems.covering_counts(built, p, (0.5,))
    vals = np.stack([f.values for f in fam])
    vol = 1.0 / 32
    want = np.zeros((members, members))
    for i in range(members):
        g = _whole_norm(space, vals[i + 1 :] - vals[i])
        want[i, i + 1 :] = want[i + 1 :, i] = (np.sum(g**p, axis=1) * vol) ** (1.0 / p)
    assert len(seen) == 2
    assert np.array_equal(seen[0], want) and np.array_equal(seen[1], want)


@pytest.mark.parametrize(
    "space", [s for s in BLOCK_SPACES if s.kind == "GridLr"], ids=lambda s: f"r{s.exponent}"
)
def test_blocked_passes_leave_no_row_alone(space, monkeypatch):
    # 16 nodes in blocks of 3 rows would leave the last row alone (and 13
    # nodes for a shift by 3); numpy rounds a one-row ``@ w`` differently
    # in about one row of six, so over these seeds a lone row shows
    monkeypatch.setattr(_kernels, "NODE_BLOCK", 3 * space.dim)
    for seed in range(24):
        u = _blueprint(space, 1, seed).realize(16)
        res = calculus.norm_derivative_field(u)
        fields, flags, _ = _whole_norm_derivative_field(u)
        assert np.array_equal(res.fields[0].values[..., 0], fields[0])
        assert np.array_equal(res.flags[0], flags[0])
        X = u.values.reshape(-1, space.dim)
        assert np.array_equal(
            np.concatenate([banach.norm(space, X[b]) for b in _kernels.node_blocks(16, space.dim)]),
            _whole_norm(space, X),
        )
        for steps in (1, 2, 3):
            got = gridfn.shift_difference_norm(u, 0, steps, 1.0)
            assert got == _whole_shift_difference_norm(u, 0, steps, 1.0)


def _field_errors(target, res):
    """The errors ``calculus._compare`` gives a field result, checked
    against the whole-array form."""
    errs = calculus._compare(target, res.fields, res.flags).errors(1.0)
    assert errs == _whole_fd_errors(target, res.fields, res.flags)
    return errs


def _assert_one_row_form(res, errs, **details):
    """A chain-rule report's one form: per axis j the rows ``l1_err[j]`` and
    ``flagged_fraction[j]``, and ``l1_err_total`` the errors' running sum."""
    rows = []
    for j, err in enumerate(errs):
        rows += [(f"l1_err[{j}]", err), (f"flagged_fraction[{j}]", float(np.mean(res.flags[j])))]
    assert res.report.rows == rows
    assert res.report.details == {"l1_err_total": _running_sum(errs), **details}


# (d, n, NODE_BLOCK as a function of the first-axis row width, the block
# lengths it gives); a row wider than NODE_BLOCK gives blocks of 3 rows
ROW_BLOCK_LAYOUTS = [
    pytest.param(1, 3, lambda width: _kernels.NODE_BLOCK, [3], id="1d-n0=3"),
    pytest.param(1, 23, lambda width: 4 * width, [4, 4, 4, 4, 4, 3], id="1d-uneven"),
    pytest.param(2, 3, lambda width: width - 1, [3], id="2d-n0=3"),
    pytest.param(2, 11, lambda width: width - 1, [3, 3, 3, 2], id="2d-wide-rows"),
    pytest.param(2, 130, lambda width: _kernels.NODE_BLOCK, None, id="2d-default"),
]


@pytest.mark.parametrize("d,n,node_block,lengths", ROW_BLOCK_LAYOUTS)
@pytest.mark.parametrize("kind", [name for name, _ in suite.KIND_SPECS])
def test_row_block_passes_match_whole_array_forms(kind, d, n, node_block, lengths, monkeypatch):
    space = dict(suite.KIND_SPECS)[kind]
    width = n ** (d - 1) * space.dim
    monkeypatch.setattr(_kernels, "NODE_BLOCK", node_block(width))
    got = [b.stop - b.start for b in _kernels.node_blocks(n, width)]
    assert got == lengths if lengths else len(got) > 1
    bp = _blueprint(space, d, seed=n + d)
    u = bp.realize(n)
    assert np.array_equal(u.values, _whole_realize(bp, n))
    u.values.reshape(-1, space.dim)[:2] = 0.0  # exact zeros: the flagged branches
    for field, want in zip(gridfn.finite_difference(u), _whole_finite_difference(u)):
        assert np.array_equal(field.values, want)

    res = calculus.norm_derivative_field(u)
    fields, flags, errs = _whole_norm_derivative_field(u)
    for j in range(d):
        assert np.array_equal(res.fields[j].values[..., 0], fields[j])
        assert np.array_equal(res.flags[j], flags[j])
    _assert_one_row_form(res, errs, cell_volume=float(np.prod(u.grid.spacing(u.domain))))
    # the lattice and quotient rule fields report in the same form
    if space.lattice_capable and space.order_continuous:
        for res, target in (
            (calculus.abs_derivative_field(u), u.like(np.abs(u.values))),
            (calculus.pos_derivative_field(u), u.like(np.maximum(u.values, 0.0))),
        ):
            _assert_one_row_form(res, _field_errors(target, res))
    phi_hat = _scalar(u, seed=n + d)
    v, res = calculus.quotient_rule_field(u, phi_hat.like(np.abs(phi_hat.values)))
    g = np.asarray(banach.norm(space, u.values))
    zero_fraction = float(np.mean(g <= banach.ZERO_TOL * (1.0 + g)))
    _assert_one_row_form(res, _field_errors(v, res), zero_fraction=zero_fraction)

    # the comparison in the member's own space, as gateaux_chain_field makes it
    rng = np.random.default_rng(n)
    near = [u.like(D + 1e-3 * rng.normal(size=D.shape)) for D in _whole_finite_difference(u)]
    some = [rng.random(u.grid.n) < 0.2 for _ in range(d)]
    for p in (1.0, 2.0, math.inf):
        assert calculus._compare(u, near, some).errors(p) == _whole_fd_errors(u, near, some, p)
    # flags that differ from axis to axis give each axis its own fraction
    res = calculus.FieldResult(near, some, calculus._compare(u, near, some).report("near"))
    _assert_one_row_form(res, _field_errors(u, res))


def _whole_lattice_field(u, kind):
    """``abs_derivative_field`` (``kind`` "abs") or ``pos_derivative_field``
    ("pos") as they were: whole-array fields, flags and errors."""
    U = u.values
    nx = np.asarray(banach.norm(u.space, U))
    flag = np.any(np.abs(U) <= banach.ZERO_TOL * (1.0 + nx)[..., None], axis=-1)
    du = _whole_finite_difference(u)
    if kind == "abs":
        target, fields = np.abs(U), [np.sign(U) * D for D in du]
    else:
        target, fields = np.maximum(U, 0.0), [np.where(U > 0.0, D, 0.0) for D in du]
    flags = [flag] * u.domain.d
    return fields, flags, _whole_fd_errors(u.like(target), [u.like(f) for f in fields], flags)


def _whole_gateaux_field(F, u):
    """``gateaux_chain_field`` as it was: whole-array sides and gaps, and
    one comparison per side: its plus fields, flags, rows and details."""
    p = gridfn.SOBOLEV_P
    X = u.values.reshape(-1, u.space.dim)
    shape = u.grid.n + (F.target.dim,)
    v = gridfn.GridFunction(u.domain, u.grid, F.target, F.apply_batch(X).reshape(shape))
    vol = float(np.prod(u.grid.spacing(u.domain)))
    sides, flags, gaps = ([], []), [], []
    for D in _whole_finite_difference(u):
        V = D.reshape(X.shape)
        plus, minus = F.onesided_batch(X, V)
        gap = np.asarray(banach.norm(F.target, plus - minus))
        unique = gap <= banach.PAIR_TOL * (1.0 + np.asarray(banach.norm(u.space, V)))
        sides[0].append(v.like(plus.reshape(shape)))
        sides[1].append(v.like(minus.reshape(shape)))
        flags.append(~unique.reshape(u.grid.n))
        gaps.append(gridfn._lp(gap, vol, p))
    err_plus, err_minus = (_whole_fd_errors(v, fields, flags, p) for fields in sides)
    rows, directions = [], {}
    for j, gap in enumerate(gaps):
        rows += [(f"pm_gap_lp[{j}]", gap), (f"fd_err[{j}]", max(err_plus[j], err_minus[j]))]
        directions[j] = {"pm_gap_lp": gap, "nonunique_fraction": float(np.mean(flags[j])),
                         "err_plus": err_plus[j], "err_minus": err_minus[j]}
    return [f.values for f in sides[0]], flags, rows, {"directions": directions}


def _coordinate_modulus(space):
    """|.| coordinatewise from ``space`` to itself with its one-sided sides:
    sign(x) h where x != 0, +-|h| at 0, so not unique where a coordinate of
    x is 0 and h is not."""
    return calculus.LipschitzMap(
        rule=np.abs, source=space, target=space, L=1.0, name="modulus",
        onesided_batch=lambda X, V: (np.where(X != 0.0, np.sign(X) * V, np.abs(V)),
                                     np.where(X != 0.0, np.sign(X) * V, -np.abs(V))),
    )


@pytest.mark.parametrize("rows", [2, 3, None], ids=["blocks-of-2", "blocks-of-3", "one-block"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", [name for name, _ in suite.KIND_SPECS])
def test_lattice_and_gateaux_fields_match_whole_array_forms(kind, d, rows, monkeypatch):
    # seeded members with exact zero coordinates (+0.0 and -0.0) and a zero
    # row: the fields, flags, report rows and details of the lattice rules
    # (in the order-continuous lattice kinds) and of the Gateaux rule of the
    # norm and of the coordinatewise modulus (in every kind), bit for bit
    space = dict(suite.KIND_SPECS)[kind]
    n = 23 if d == 1 else 9
    u = _blueprint(space, d, seed=17 * d + n).realize(n)
    flat = u.values.reshape(-1, space.dim)
    flat[:: 5, 0] = 0.0
    flat[2 :: 7, -1] = -0.0
    flat[n // 2] = 0.0
    if rows:
        monkeypatch.setattr(_kernels, "NODE_BLOCK", rows * u.values[0].size)
    if space.lattice_capable and space.order_continuous:
        for kind, rule in (("abs", calculus.abs_derivative_field),
                           ("pos", calculus.pos_derivative_field)):
            res = rule(u)
            fields, flags, errs = _whole_lattice_field(u, kind)
            for j in range(d):
                assert _same_bits(res.fields[j].values, fields[j])
                assert _same_bits(res.flags[j], flags[j])
            assert res.report.name == f"{kind}_derivative_field"
            _assert_one_row_form(res, errs)
    for F in (calculus.norm_lipschitz_map(space), _coordinate_modulus(space)):
        res = calculus.gateaux_chain_field(F, u)
        fields, flags, table, details = _whole_gateaux_field(F, u)
        for j in range(d):
            assert _same_bits(res.fields[j].values, fields[j])
            assert _same_bits(res.flags[j], flags[j])
        assert res.report.name == f"gateaux_chain[{F.name}]"
        assert res.report.rows == table
        assert res.report.details == details
        assert F.name != "modulus" or any(f.any() for f in flags)  # the sides differ


def _prefix_pairing(c):
    """The pairing path of the indicator path with coefficients c, as one
    sequential sum: 0, c_0, c_0 + c_1, ..."""
    return np.concatenate(([0.0], np.cumsum(c[:-1])))


def _witness_coefficients(r, n):
    """``pairing_vector`` of the functional ``indicator_path_witness``
    pairs its path with."""
    space = banach.SpaceDescriptor("SampledSup", n) if math.isinf(r) else (
        banach.SpaceDescriptor("GridLr", n, exponent=r)
    )
    if math.isinf(r):
        pairing = np.full(n, 1.0 / n)
    elif r == 1.0:
        pairing = np.ones(n)
    else:
        pairing = (np.arange(n) < n // 2).astype(np.float64) * (n / (n // 2)) ** (1.0 - 1.0 / r)
    return banach.pairing_vector(space, pairing)


def _whole_array_indicator_witness(r, n):
    """``indicator_path_witness`` on its whole n x n path: each lag's
    differences normed as one whole (n-k) x n array for its row, the
    criterion ``dq_criterion`` of the path (``shift_node_norms``), and the
    pairing path the prefix sums of the functional's coefficients."""
    space = banach.SpaceDescriptor("SampledSup", n) if math.isinf(r) else (
        banach.SpaceDescriptor("GridLr", n, exponent=r)
    )
    i = np.arange(n)
    values = (i[None, :] < i[:, None]).astype(np.float64)
    u = gridfn.GridFunction(gridfn.unit_box(1), gridfn.GridSpec((n,)), space, values)
    rows = []
    for k in counterexamples.INDICATOR_LAGS:
        h = k * (1.0 / n)
        measured = float(np.max(banach.norm(space, values[k:] - values[:-k]))) / h
        oracle = 1.0 / h if math.isinf(r) else h ** (1.0 / r - 1.0)
        rows.append((h, measured, oracle, measured / oracle))
    crit = calculus.dq_criterion(u, gridfn.SOBOLEV_P)
    expected_slope = -1.0 if math.isinf(r) else 1.0 / r - 1.0
    g = gridfn.from_scalar(u.domain, u.grid, _prefix_pairing(_witness_coefficients(r, n)))
    pair_crit = calculus.dq_criterion(g, gridfn.SOBOLEV_P)
    if r > 1.0:
        expected = not crit.passed and abs(crit.details["slope"] - expected_slope) <= 0.05
    else:
        expected = crit.verdict == "BOUNDED"
    notes = {
        "r": r,
        "criterion_verdict": crit.verdict,
        "criterion_slope": crit.details["slope"],
        "expected_slope": expected_slope,
        "pairing_verdict": pair_crit.verdict,
        "pairing_c_est": pair_crit.details["c_est"],
        "interpretation": (
            "bounded quotients without a derivative (target lacks the "
            "Radon-Nikodym property)"
            if r == 1.0
            else "quotients blow up: the path is Lipschitz but not Sobolev"
        ),
    }
    report = counterexamples._finish(
        "indicator_path_witness", rows, (0.9, 1.1), notes,
        extra_ok=expected and pair_crit.passed,
    )
    return report, crit


@pytest.mark.parametrize("n", [33, 64, 257, 300, 1024])  # 33: the least n the lag 32 allows
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0, math.inf])
def test_indicator_witness_matches_whole_array_form(r, n, monkeypatch):
    # the witness never forms its path, norms each lag's bands once and
    # forms dq_criterion's rows from those node norms; its report and its
    # criterion are the whole path's
    verdicts = []
    fit = counterexamples._dq_verdict
    monkeypatch.setattr(
        counterexamples, "_dq_verdict", lambda *a: verdicts.append(fit(*a)) or verdicts[-1]
    )
    got = counterexamples.indicator_path_witness(r, n)
    want, crit = _whole_array_indicator_witness(r, n)
    assert got.rows == want.rows and got.verdict == want.verdict
    assert got.details == want.details
    (mine,) = verdicts
    assert mine.rows == crit.rows
    assert mine.verdict == crit.verdict
    for key in ("slope", "c_est", "residual", "per_direction"):
        assert mine.details[key] == crit.details[key]


@pytest.mark.parametrize("node_block", [1, 100, 5000, _kernels.NODE_BLOCK])
@pytest.mark.parametrize("r", [1.0, 2.5, math.inf])
def test_band_node_norms_match_path_differences(r, node_block, monkeypatch):
    # blocks of two or three rows up to blocks of many: every block gets the
    # rows that the subtraction of the whole path's rows gives, so the same
    # node norms (sums of whole numbers of ones, or their max)
    n = 257
    space = banach.SpaceDescriptor("SampledSup", n) if math.isinf(r) else (
        banach.SpaceDescriptor("GridLr", n, exponent=r)
    )
    i = np.arange(n)
    path = (i[None, :] < i[:, None]).astype(np.float64)
    monkeypatch.setattr(_kernels, "NODE_BLOCK", node_block)
    for k in counterexamples.INDICATOR_LAGS:
        want = banach.norm(space, path[k:] - path[:-k])
        assert np.array_equal(counterexamples._band_node_norms(space, n, k), want)


def _whole_path_product(c):
    n = len(c)
    i = np.arange(n)
    return (i[None, :] < i[:, None]).astype(np.float64) @ c


@pytest.mark.parametrize("scale", [1, 200, 2**15])
@pytest.mark.parametrize("n", [33, 34, 35, 36, 257, 300, 1023])
def test_path_pairing_matches_whole_path_product(n, scale):
    # integer coefficients up to scale: every partial sum is exact, so the
    # whole product gives the same bits whatever its order of summation
    # and its BLAS thread count (which its bits depended on from n = 683)
    c = np.random.default_rng(n).integers(-scale, scale + 1, size=n).astype(np.float64)
    assert np.array_equal(counterexamples._path_pairing(n, c), _whole_path_product(c))


@pytest.mark.parametrize("n", [64 * 2**j for j in range(6)])
@pytest.mark.parametrize("r", [1.0, math.inf])
def test_path_pairing_matches_whole_path_product_for_the_witness(r, n):
    # the witness's own coefficients, ones or 1/n for n a power of two:
    # their partial sums are exact too
    c = _witness_coefficients(r, n)
    assert np.array_equal(counterexamples._path_pairing(n, c), _whole_path_product(c))


@pytest.mark.parametrize("n", [33, 34, 35, 36, 257, 300, 1023])
def test_path_pairing_is_the_prefix_sum_to_rounding(n):
    c = np.random.default_rng(n).normal(size=n)
    want = np.array([math.fsum(c[:t]) for t in range(n)])
    got = counterexamples._path_pairing(n, c)
    assert np.max(np.abs(got - want)) <= n * np.finfo(np.float64).eps * np.sum(np.abs(c))


def test_c0_witness_matches_fresh_array_sweep(monkeypatch):
    # the sweep in reused buffers against fresh arrays for every block
    got = counterexamples.c0_sine_witness()
    monkeypatch.setattr(counterexamples, "_path_lipschitz", _unpruned_path_lipschitz)
    want = counterexamples.c0_sine_witness()
    assert got.rows == want.rows and got.details == want.details


def _whole_array_ck_rows():
    """The C(K) witness's quotient rows and d* as they were: every lag's
    quotient formed over all CK_SAMPLES sample points at once."""
    t = counterexamples.CK_TIME
    rs = (np.arange(counterexamples.CK_SAMPLES) + 0.5) / counterexamples.CK_SAMPLES
    d_star = float(rs[rs > t][0] - t)
    cand = -(rs > t).astype(np.float64)
    rows = []
    for h in counterexamples.CK_LAGS:
        qh = (np.maximum(rs - (t + h), 0.0) - np.maximum(rs - t, 0.0)) / h
        measured = float(np.max(np.abs(qh - cand)))
        oracle = 1.0 - d_star / h
        rows.append((h, measured, oracle, measured / oracle))
    return rows, d_star


@pytest.mark.parametrize("node_block", [_kernels.NODE_BLOCK, 4096, 33334])
def test_blocked_ck_quotients_match_whole_array(node_block, monkeypatch):
    # 4096: 25 blocks; 33334: t falls past the first block's last point
    monkeypatch.setattr(_kernels, "NODE_BLOCK", node_block)
    rows, d_star = _whole_array_ck_rows()
    w = counterexamples.ck_pospart_witness()
    assert w.rows == rows
    assert w.details["first_sample_gap"] == d_star
    assert w.details["distance_at_finest"] == rows[-1][1]


# The norm pass's shortcuts (``banach._pairing_at``, ``_kernels.lr_gradient``,
# the midpoint, the carried window rows, ``gridfn._difference_rows``'s
# reciprocal) against the general expressions they stand for, bit for bit:
# NaN for NaN, and the sign of every zero.

PAIRING_SPACES = BLOCK_SPACES + [
    banach.scalar_space(),
    # weights 1/4: a row of subnormal coordinates has the norm 0
    banach.SpaceDescriptor("GridLr", 4, exponent=1.0),
]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == bool or b.dtype == bool:
        return a.dtype == b.dtype and np.array_equal(a, b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _general_pairing(space, X, H):
    """The pairing by the general expressions of each kind: the extremes of
    the sides over the norming functionals (the sup norm's ties, ell^1's
    zero coordinates, the smooth gradient |x|^(r-1) sign(x) / |x|^(r-1)),
    (+|h|, -|h|) at x = 0, and the sides unique within PAIR_TOL (1 + |h|)."""
    nx = banach.norm(space, X)
    hnorm = banach.norm(space, H)
    w = space.weights
    if space.sup_like:
        tie = np.abs(X) >= (nx * (1.0 - banach.TIE_REL))[:, None]
        plus, minus = _kernels.sup_pairing(X, H, np.where(tie, np.nan, -np.inf))
    elif space.exponent == 1.0:
        base = _kernels.row_sum(np.sign(X) * H, w)
        zero_part = _kernels.row_sum(np.abs(H) * (X == 0.0), w)
        plus, minus = base + zero_part, base - zero_part
    else:
        r = space.exponent
        nz = nx > 0.0
        num = _kernels.row_sum(_kernels.abs_power(X, r - 1.0) * np.sign(X) * H, w)
        plus = minus = np.zeros(len(X))
        plus[nz] = num[nz] / nx[nz] ** (r - 1.0)
    zero = nx == 0.0
    plus, minus = np.where(zero, hnorm, plus), np.where(zero, -hnorm, minus)
    return plus, minus, (plus - minus) <= banach.PAIR_TOL * (1.0 + hnorm)


def _general_field(u):
    """``norm_derivative_field(u)``'s fields and flags by the general
    expressions: the midpoint of the sides, plus where they are unique, 0
    at x = 0; flagged where they are not unique or |x| is near zero."""
    X = u.values.reshape(-1, u.space.dim)
    nx = banach.norm(u.space, X)
    fields, flags = [], []
    for D in _whole_finite_difference(u):
        plus, minus, unique = _general_pairing(u.space, X, D.reshape(X.shape))
        mid = (plus + minus) * 0.5
        mid[unique] = plus[unique]
        mid[nx == 0.0] = 0.0
        fields.append(mid.reshape(u.grid.n))
        flags.append((~unique | (nx <= banach.ZERO_TOL * (1.0 + nx))).reshape(u.grid.n))
    return fields, flags


@st.composite
def pairing_points(draw, space, rows):
    """Rows of points in ``space``: normal draws, exact zero rows and
    coordinates, -0.0, rows of the smallest subnormal (whose norm is 0
    under weights below 1), and, from dim 2 on, the largest coordinate
    matched by another within TIE_REL (a tie), at its edge, or just outside
    it."""
    dim = space.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(rows, dim))
    forms = ["plain", "zero_row", "zero", "negative_zero", "subnormal_row"] + ["tie"] * (dim > 1)
    for i in range(rows):
        form = draw(st.sampled_from(forms))
        c = int(rng.integers(dim))
        if form == "zero_row":
            X[i] = draw(st.sampled_from([0.0, -0.0]))
        elif form == "subnormal_row":
            X[i] = draw(st.sampled_from([5e-324, -5e-324]))
        elif form == "zero":
            X[i, c] = 0.0
        elif form == "negative_zero":
            X[i, c] = -0.0
        elif form == "tie":
            X[i, 0] = draw(st.sampled_from([10.0, -10.0]))
            f = draw(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]))
            X[i, 1 + c % (dim - 1)] = -X[i, 0] * (1.0 - f * banach.TIE_REL)
    return X


@st.composite
def pairing_directions(draw, shape):
    """Directions: normal draws with exact zeros and -0.0, and in half of
    the batches a few finite entries near +-1.7e308, and then in half of
    those a whole row of them, whose sides and norms can overflow (the
    pairing takes finite input: test_pairing_batch_rejects_non_finite_input)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    H = rng.normal(size=shape)
    H.flat[rng.integers(H.size, size=2)] = 0.0
    H.flat[rng.integers(H.size, size=2)] = -0.0
    huge = st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308])
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            H.flat[rng.integers(H.size)] = draw(huge)
        if draw(st.booleans()):
            H[rng.integers(len(H))] = draw(huge)
    return H


PAIRING_CASES = dict(derandomize=True, max_examples=60, deadline=None)


@pytest.mark.parametrize("space", PAIRING_SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
@given(data=st.data())
@settings(**PAIRING_CASES)
def test_pairing_matches_general_expressions(space, data):
    X = data.draw(pairing_points(space, data.draw(st.integers(1, 12))))
    H = data.draw(pairing_directions(X.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing sides
        got = banach.one_sided_norm_derivative_batch(space, X, H)
        want = _general_pairing(space, X, H)
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    if math.isfinite(space.exponent) and space.exponent > 1.0:
        r, nx = space.exponent, banach.norm(space, X)
        terms, nz, den = _kernels.lr_gradient(X, r, nx)
        assert _same_bits(terms, _kernels.abs_power(X, r - 1.0) * np.sign(X))
        assert _same_bits(den, nx[nz] ** (r - 1.0))


@pytest.mark.parametrize("space", PAIRING_SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
@given(data=st.data())
@settings(**PAIRING_CASES)
def test_norm_derivative_field_matches_general_expressions(space, data):
    # node blocks of two or three rows, or one block
    d = data.draw(st.sampled_from([1, 2]))
    n = data.draw(st.integers(3, 24) if d == 1 else st.integers(3, 7))
    X = data.draw(pairing_points(space, n**d))
    u = gridfn.GridFunction(
        gridfn.unit_box(d), gridfn.GridSpec((n,) * d), space, X.reshape((n,) * d + (space.dim,))
    )
    rows = data.draw(st.sampled_from([2, 3, n]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "NODE_BLOCK", rows * u.values[0].size)
        res = calculus.norm_derivative_field(u)
    fields, flags = _general_field(u)
    for j in range(d):
        assert _same_bits(res.fields[j].values[..., 0], fields[j])
        assert _same_bits(res.flags[j], flags[j])


@pytest.mark.parametrize("space", PAIRING_SPACES, ids=lambda s: f"{s.kind}-{s.exponent}-{s.dim}")
def test_overflowing_differences_stay_flagged(space):
    # finite nodes of +-1.7e308, whose differences overflow to +-inf: the
    # nodes they reach are flagged, and the flags and the fields at every
    # node, the flagged ones included, are the general expressions'
    n = 12
    X = np.random.default_rng(5).normal(size=(n, space.dim))
    X[5], X[6] = 1.7e308, -1.7e308
    u = gridfn.GridFunction(gridfn.unit_box(1), gridfn.GridSpec((n,)), space, X)
    with np.errstate(over="ignore", invalid="ignore"):
        res = calculus.norm_derivative_field(u)
        (field,), (flag,) = _general_field(u)
    assert flag[4:8].all() and not flag[:4].any()
    assert _same_bits(res.flags[0], flag)
    assert _same_bits(res.fields[0].values[..., 0], field)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5, 33, 64, 300])
def test_carried_windows_hold_the_realized_rows(n, d, monkeypatch):
    # each window of a blueprint's norm pass opens with the last two rows of
    # the window before, values and norms, and realizes and norms the rest:
    # every window holds the rows and norms of the whole member
    difference_rows = calculus._difference_rows
    for bp in suite.corpus_blueprints(np.random.default_rng(n)):
        if bp.d != d:
            continue
        whole = bp.realize(n)
        norms = banach.norm(bp.space, whole.values)[..., None]
        firsts = set()

        def spy(v, first, *args):
            want = norms if v.shape[-1] == 1 else whole.values
            assert _same_bits(v, want[first : first + len(v)])
            firsts.add(first)
            return difference_rows(v, first, *args)

        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "NODE_BLOCK", 3 * whole.values[0].size)
            mp.setattr(calculus, "_difference_rows", spy)
            got = calculus.norm_derivative_report(bp, n)
            blocks = _kernels.node_blocks(n, whole.values[0].size)
        assert len(firsts) == len(blocks) > (n > 3)
        want = calculus.norm_derivative_field(whole).report
        assert (got.rows, got.details) == (want.rows, want.details)


@pytest.mark.parametrize("length", [1.0, 3.0, 2.0**-1040])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 33, 64, 300, 512])
@pytest.mark.parametrize("d,order", [(1, "C"), (2, "C"), (2, "F")])
def test_difference_rows_match_division(d, order, n, length):
    # a power-of-two step (length 1, n a power of two) is multiplied by its
    # reciprocal, any other step divides; so does one whose reciprocal is
    # infinite (length 2**-1040).  Along axis 1 a C-ordered array is
    # differenced flat, an F-ordered one through strided slices.
    if d == 2:
        n = min(n, 64)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n,) * d + (2,))
    vals[..., 0] = 0.0
    vals[..., 1] *= 2.0 ** rng.integers(-1074, 1000, size=vals.shape[:-1])
    vals = np.asarray(vals, order=order)
    dom = gridfn.BoxDomain([0.0] * d, [length] * d)
    u = gridfn.GridFunction(dom, gridfn.GridSpec((n,) * d), banach.SpaceDescriptor("FiniteLr", 2), vals)
    with np.errstate(over="ignore"):
        got = gridfn.finite_difference(u)
        want = _whole_finite_difference(u)
    for g, w in zip(got, want):
        assert _same_bits(g.values, w)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize(
    "space",
    [
        banach.scalar_space(),
        banach.SpaceDescriptor("FiniteLr", 1, exponent=1.5),
        banach.SpaceDescriptor("GridLr", 1, exponent=1.0, weights=[2.0]),
        banach.SpaceDescriptor("GridLr", 1, exponent=3.0),
    ],
    ids=lambda s: f"{s.kind}-{s.exponent}-{s.weights[0]}",
)
def test_scalar_comparison_matches_whole_array_form(space, p):
    # in the scalar space the comparison keeps the signed differences,
    # whose |.| _lp takes; every other space of dim 1 norms them
    rng = np.random.default_rng(7)
    u = gridfn.GridFunction(gridfn.unit_box(1), gridfn.GridSpec((200,)), space, rng.normal(size=(200, 1)))
    near = [u.like(D + 1e-3 * rng.normal(size=D.shape)) for D in _whole_finite_difference(u)]
    flags = [rng.random(u.grid.n) < 0.3]
    assert calculus._compare(u, near, flags).errors(p) == _whole_fd_errors(u, near, flags, p)
