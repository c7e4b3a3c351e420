"""Embedding, Poincaré, zero-trace, compactness, and extension checks."""

import collections
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from sobolev_banach import _kernels, banach, gridfn, suite, theorems
from sobolev_banach.errors import ContractError, DimensionMismatchError

HIL2 = banach.SpaceDescriptor("Hilbert", 2)
BOX1 = gridfn.unit_box(1)


def _sin_member(n, dim=2):
    """Zero-trace profile sin(pi t) spread over the first two coordinates."""
    sp = banach.SpaceDescriptor("Hilbert", dim)
    return gridfn.sample(
        BOX1,
        gridfn.GridSpec((n,)),
        sp,
        lambda x: math.sin(math.pi * x[0]) * np.array([1.0, 0.5] + [0.0] * (dim - 2)),
    )


def test_scalar_probe_corpus_contents():
    rng = np.random.default_rng(40)
    corpus = theorems.scalar_probe_corpus(BOX1, gridfn.GridSpec((64,)), rng)
    assert len(corpus) == theorems.PROBE_COUNT
    assert all(g.space == banach.scalar_space() for g in corpus)
    # the last probe is the square-root profile, near-extremal for alpha=1/2
    sqrt_profile = corpus[-1]
    t = gridfn.grid_centers(BOX1, sqrt_profile.grid)[:, 0]
    assert np.array_equal(sqrt_profile.values[:, 0], np.sqrt(t))


def test_embedding_check_vector_never_beats_scalar():
    u = _sin_member(128)
    rep = theorems.embedding_check(u)
    assert rep.passed
    assert rep.details["ratio_of_ratios"] <= 1.0 + 1e-6
    assert (rep.details["p"], rep.details["r"]) == (2.0, theorems.EMBEDDING_R)
    # W^{1,2} embeds in L^4 up to d = 4 (critical exponent 2d/(d-2) = 4)
    # and not beyond
    const = lambda d: gridfn.sample(
        gridfn.unit_box(d), gridfn.GridSpec((3,) * d), HIL2, lambda x: np.array([1.0, 0.0])
    )
    assert theorems.embedding_check(const(4)).passed
    with pytest.raises(ContractError, match="d=5"):
        theorems.embedding_check(const(5))


def test_dirichlet_eigenvalue_closed_form():
    # the cell-centered operator with odd-reflection ends has eigenvector
    # sin(pi (i+1/2)/n) and eigenvalue (2 - 2 cos(pi/n)) / h^2 exactly
    for n in (16, 64):
        h = 1.0 / n
        want = (2.0 - 2.0 * math.cos(math.pi / n)) / h**2
        assert theorems.dirichlet_eigenvalue(n) == pytest.approx(want, rel=1e-12)
    lam = theorems.dirichlet_eigenvalue(512)
    assert abs(lam - math.pi**2) <= 0.01 * math.pi**2


@pytest.mark.parametrize("n", [2.5, True, 0, -3, 1])
def test_dirichlet_eigenvalue_rejects_a_cell_count_below_two_or_not_an_integer(n):
    # one cell would give 3.0, not the closed form's 4 sin^2(pi/2) = 4.0
    with pytest.raises(ContractError, match=f"n must be .*{n!r}"):
        theorems.dirichlet_eigenvalue(n)


def _dirichlet_operator(n):
    h = 1.0 / n
    diag = np.full(n, 2.0 / h**2)
    diag[0] = diag[-1] = 3.0 / h**2
    return diag, np.full(n - 1, -1.0 / h**2), h


@pytest.mark.parametrize("n", [16, 512, 4096, 32768])
def test_dirichlet_eigenvalue_matches_cancellation_free_form(n):
    # 4 sin^2(pi h / 2) / h^2 equals (2 - 2 cos(pi h)) / h^2 without the
    # cancellation of 2 - 2 cos at small h
    h = 1.0 / n
    want = 4.0 * math.sin(math.pi * h / 2.0) ** 2 / h**2
    assert theorems.dirichlet_eigenvalue(n) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("n", [16, 512, 4096])
def test_dirichlet_eigenvalue_matches_lapack(n):
    linalg = pytest.importorskip("scipy.linalg")
    diag, off, _ = _dirichlet_operator(n)
    lapack = linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0]
    assert theorems.dirichlet_eigenvalue(n) == pytest.approx(lapack, rel=1e-9)


@pytest.mark.parametrize("n", [16, 512])
def test_dirichlet_eigenvalue_rejects_a_profile_that_is_no_eigenvector(n):
    # Neumann ends (end entries 1/h^2): the sine profile is no eigenvector
    diag, off, h = _dirichlet_operator(n)
    diag[0] = diag[-1] = 1.0 / h**2
    v = np.sin(math.pi * (np.arange(n) + 0.5) * h)
    with pytest.raises(ContractError, match=f"n={n} .*residual"):
        theorems._rayleigh_eigenvalue(diag, off, v, h)
    diag[0] = diag[-1] = 3.0 / h**2
    assert theorems._rayleigh_eigenvalue(diag, off, v, h) == theorems.dirichlet_eigenvalue(n)


def test_poincare_check_sharp_profile():
    u = _sin_member(256)
    rep = theorems.poincare_check(u)
    assert rep.passed
    assert dict(rep.rows)["constant"] == math.pi
    assert rep.details["ratio"] == pytest.approx(math.pi, rel=1e-3)
    # the sharp constant is pi / L on an interval of length L
    box2 = gridfn.BoxDomain(np.array([0.0]), np.array([2.0]))
    u2 = gridfn.sample(box2, gridfn.GridSpec((256,)), HIL2,
                       lambda x: math.sin(math.pi * x[0] / 2.0) * np.array([1.0, 0.5]))
    rep2 = theorems.poincare_check(u2)
    assert rep2.passed and dict(rep2.rows)["constant"] == math.pi / 2.0
    assert rep2.details["ratio"] == pytest.approx(math.pi / 2.0, rel=1e-3)
    flat = gridfn.sample(BOX1, gridfn.GridSpec((64,)), HIL2, lambda x: np.array([1.0, 0.0]))
    with pytest.raises(ContractError, match="zero-trace"):
        theorems.poincare_check(flat)


def test_w0_membership_verdicts():
    rep = theorems.w0_membership(_sin_member(128))
    assert rep.passed and rep.verdict == "MEMBER"
    flat = gridfn.sample(BOX1, gridfn.GridSpec((128,)), HIL2, lambda x: np.array([2.0, 0.0]))
    rep2 = theorems.w0_membership(flat)
    assert not rep2.passed and rep2.verdict == "NOT_MEMBER"
    # the tolerance is 10 h^2
    assert rep2.details["tol"] == 10.0 / 128**2


def test_weak_w0_agrees_with_direct():
    # one row per coordinate functional, and the same verdict as the direct
    # boundary-norm test, for a member and for a non-member
    flat = gridfn.sample(BOX1, gridfn.GridSpec((128,)), HIL2, lambda x: np.array([0.0, 2.0]))
    for u, verdict in ((_sin_member(128, dim=3), "MEMBER"), (flat, "NOT_MEMBER")):
        rep = theorems.weak_w0_check(u)
        assert rep.verdict == theorems.w0_membership(u).verdict == verdict
        assert [k for k, _ in rep.rows] == [f"functional[{i}]" for i in range(u.space.dim)]
    # the first coordinate of flat vanishes, so only the second pairing
    # carries a boundary norm
    assert rep.rows[0][1] == 0.0 and rep.rows[1][1] > 1.0


def test_norm_map_continuity_perturbations():
    n = 128
    g = gridfn.GridSpec((n,))
    t = g.axes(BOX1)[0]
    base = np.stack([2.0 + np.sin(math.pi * t), t * (1 - t)], axis=-1)
    u = gridfn.GridFunction(BOX1, g, HIL2, base)
    pert = np.stack([np.sin(3 * math.pi * t), np.cos(2 * math.pi * t)], axis=-1)
    seq = [u.like(base + pert / 2.0**k) for k in range(1, 7)]
    rep = theorems.norm_map_continuity_check(seq, u)
    assert rep.passed
    assert rep.details["fitted_slope"] >= 0.9
    # a sequence already sitting at u leaves no pair above the floor, so
    # nothing is compared and nothing passes
    rep2 = theorems.norm_map_continuity_check([u.like(base)] * 3, u)
    assert not rep2.passed and math.isnan(rep2.details["fitted_slope"])


def test_norm_map_continuity_needs_two_pairs():
    # one element whose scalar W-distance (1.20) is almost five times its
    # vector W-distance (0.25): a single pair fits no order and must not pass
    g = gridfn.GridSpec((64,))
    t = g.axes(BOX1)[0]
    u = gridfn.GridFunction(BOX1, g, HIL2, np.stack([t - 0.5, 0.0 * t], axis=-1))
    rep = theorems.norm_map_continuity_check([u.like(u.values + [0.25, 0.0])], u)
    ((dvec, dsca),) = rep.rows
    assert dvec == pytest.approx(0.25) and dsca == pytest.approx(1.2045, abs=1e-4)
    assert rep.verdict == "FAIL" and math.isnan(rep.details["fitted_slope"])


def test_covering_counts_clusters():
    g = gridfn.GridSpec((16,))
    mk = lambda c: gridfn.sample(BOX1, g, HIL2, lambda x: np.array([c, 0.0]))
    members = [mk(0.0), mk(0.001), mk(10.0), mk(10.001), mk(20.0)]
    # three clusters 10 apart: eps below the cluster spread needs one center
    # per cluster, eps above the diameter needs a single one; eps 0 needs
    # every distinct member, and inf a single one
    counts = theorems.covering_counts(members, 2.0, [0.0, 0.01, 5.0, 100.0, math.inf])
    assert counts == [5, 3, 3, 1, 1]
    assert theorems.covering_counts(members[:1], 2.0, [0.1]) == [1]


def _cover_member(space=HIL2, n=16, dom=BOX1):
    return gridfn.GridFunction(dom, gridfn.GridSpec((n,)), space, np.ones((n, space.dim)))


def test_covering_counts_rejects_an_empty_family():
    with pytest.raises(ContractError, match="at least one member"):
        theorems.covering_counts([], 2.0, [0.1])


@pytest.mark.parametrize(
    "odd, what",
    [
        (_cover_member(banach.SpaceDescriptor("SampledSup", 2)), "space"),
        (_cover_member(n=32), "grid"),
        (_cover_member(dom=gridfn.BoxDomain([0.0], [2.0])), "domain"),
    ],
    ids=["space", "grid", "domain"],
)
def test_covering_counts_rejects_a_member_that_differs_from_the_first(odd, what):
    # a SampledSup member beside Hilbert ones would be measured in the
    # Hilbert norm, and another grid would fail inside the stack
    members = [_cover_member(), _cover_member(), odd]
    with pytest.raises(DimensionMismatchError, match=f"member 2 .*{what}"):
        theorems.covering_counts(members, 2.0, [0.1])


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
def test_covering_counts_rejects_p_below_one(p):
    with pytest.raises(ValueError, match="p must be >= 1"):
        theorems.covering_counts([_cover_member(), _cover_member()], p, [0.1])


@pytest.mark.parametrize("eps", [-1.0, math.nan, "a"])
def test_covering_counts_rejects_an_eps_that_is_no_real_at_least_zero(eps):
    # a negative or nan eps would count one centre, vacuously
    with pytest.raises(ContractError, match=f"eps must be a real >= 0, got {eps!r}"):
        theorems.covering_counts([_cover_member(), _cover_member()], 2.0, [0.1, eps])


def test_covering_counts_memory_stays_below_the_stacked_family():
    # only one node block of members is stacked at a time, never the family;
    # numpy reports its buffers to tracemalloc
    space = banach.SpaceDescriptor("GridLr", 4, exponent=2.0)
    rng = np.random.default_rng(0)
    members = [
        gridfn.GridFunction(BOX1, gridfn.GridSpec((1024,)), space, rng.normal(size=(1024, 4)))
        for _ in range(60)
    ]
    stacked = sum(m.values.nbytes for m in members)
    tracemalloc.start()
    try:
        theorems.covering_counts(members, 2.0, [0.1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * stacked


class _CountedMembers:
    """Member k of a seeded family of 32-node GridLr(4) members, built each
    time it is read; each build records the tiles (``tile[k]`` is member
    k's) of the members whose values are still alive then, the new one
    included."""

    def __init__(self, count, tile):
        self.count, self.tile = count, tile
        self.values = np.random.default_rng(count).normal(size=(count, 32, 4))
        self.builds, self.live = [], []

    def __len__(self):
        return self.count

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(self.count))]
        if not 0 <= k < self.count:
            raise IndexError(k)
        self.live = [(j, ref) for j, ref in self.live if ref() is not None]
        member = gridfn.GridFunction(BOX1, gridfn.GridSpec((32,)), SPACE4, self.values[k].copy())
        self.live.append((k, weakref.ref(member.values)))
        self.builds.append((k, {self.tile[j] for j, _ in self.live}))
        return member


SPACE4 = banach.SpaceDescriptor("GridLr", 4, exponent=2.0)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 16, 30])
def test_covering_counts_builds_each_tile_pair_once(count, monkeypatch):
    # tiles of at most three members: the first pass reads each member
    # once, in order; the distance pass reads a tile once for itself and
    # once for each earlier tile, with at most two tiles alive at any build
    monkeypatch.setattr(_kernels, "NODE_BLOCK", 3 * 32 * 4)
    tiles = _kernels.node_blocks(count, 32 * 4)
    tile = [t for t, blk in enumerate(tiles) for _ in range(blk.start, blk.stop)]
    fam = _CountedMembers(count, tile)
    got = theorems.covering_counts(fam, 2.0, [0.5, 2.0])
    assert [k for k, _ in fam.builds[:count]] == list(range(count))
    builds = collections.Counter(k for k, _ in fam.builds[count:])
    assert builds == {k: 1 + tile[k] for k in range(count)}
    assert max(len(tiles) for _, tiles in fam.builds) <= 2
    members = [fam[k] for k in range(count)]
    assert got == theorems.covering_counts(members, 2.0, [0.5, 2.0])


def test_aubin_lions_probe_stable_and_growing():
    def level(n, spread):
        g = gridfn.GridSpec((n,))
        t = g.axes(BOX1)[0]
        fam = []
        for i in range(6):
            prof = 0.1 * np.sin(math.pi * t * (1 + (i % 3) * spread))
            fam.append(
                gridfn.GridFunction(
                    BOX1, g, HIL2, np.stack([prof, 0.0 * prof], axis=-1)
                )
            )
        return fam

    levels = [level(32, 1), level(64, 1), level(128, 1)]
    ys = [HIL2] * 3
    prof = theorems.aubin_lions_probe(levels, ys)
    assert prof.verdict == "STABLE" and prof.passed
    assert prof.details["member_count"] == 6
    assert len(prof.rows) == 3

    # without certification a spreading family is free to grow
    grow = [level(32, 0), level(64, 2), level(128, 4)]
    prof2 = theorems.aubin_lions_probe(grow, None)
    assert prof2.verdict in ("STABLE", "GROWING")
    assert prof.details["certified"] and not prof2.details["certified"]


def _small_level(n, members=3):
    u = _sin_member(n)
    return [u.like(0.1 * u.values) for _ in range(members)]


class _LazyLevels:
    """A sized sequence of levels of ``_small_level``, one per grid size,
    each built when it is read; it records every build together with the
    number of earlier levels still alive then."""

    class Level(list):  # a list that can be weakly referenced
        pass

    def __init__(self, sizes):
        self.sizes, self.builds, self.refs = sizes, [], []

    def alive(self):
        return sum(ref() is not None for ref in self.refs)

    def __len__(self):
        return len(self.sizes)

    def __getitem__(self, lv):
        self.builds.append((lv, self.alive()))
        level = self.Level(_small_level(self.sizes[lv]))
        self.refs.append(weakref.ref(level))
        return level


@pytest.mark.parametrize("certified", [False, True])
def test_aubin_lions_probe_holds_one_level_at_a_time(certified):
    sizes = [32, 64, 128]
    ys = [HIL2] * 3 if certified else None
    levels = _LazyLevels(sizes)
    got = theorems.aubin_lions_probe(levels, ys)
    # each level is built once, in order, when no other level is alive
    assert levels.builds == [(0, 0), (1, 0), (2, 0)]
    assert levels.alive() == 0
    want = theorems.aubin_lions_probe([_small_level(n) for n in sizes], ys)
    assert got.rows == want.rows and got.details == want.details


def test_aubin_lions_compact_entry_peak_memory():
    # level 2 at refine 2 is 30 members of 2048 x 16 floats (7.5 MiB);
    # its members are built when covering_counts reads them, two tiles of
    # three members at a time
    suite.run_entry("aubin_lions_compact", 42, 2)
    tracemalloc.start()
    try:
        suite.run_entry("aubin_lions_compact", 42, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_aubin_lions_probe_checks_y_spaces_before_any_build():
    levels = _LazyLevels([32, 64])
    with pytest.raises(ContractError, match="one Y space per level"):
        theorems.aubin_lions_probe(levels, [HIL2])
    assert levels.builds == []


def test_aubin_lions_certification_errors():
    with pytest.raises(ContractError):
        theorems.aubin_lions_probe([], None)
    fam = [_sin_member(32)]
    with pytest.raises(ContractError, match="same member count"):
        theorems.aubin_lions_probe([fam, fam + fam], None)
    with pytest.raises(ContractError, match="one Y space per level"):
        theorems.aubin_lions_probe([fam], [HIL2, HIL2])
    big = [_sin_member(32).like(5.0 * _sin_member(32).values)]
    with pytest.raises(ContractError, match="not W-unit-bounded"):
        theorems.aubin_lions_probe([big], [HIL2])
    # without Y spaces the probe certifies nothing, so no bound is checked
    assert not theorems.aubin_lions_probe([big], None).details["certified"]


def test_mollifier_family_check():
    g = gridfn.GridSpec((256,))
    t = g.axes(BOX1)[0]
    fam = [
        gridfn.GridFunction(
            BOX1, g, HIL2, np.stack([np.sin(k * math.pi * t), 0 * t], axis=-1)
        )
        for k in (1, 2)
    ]
    rep = theorems.mollifier_family_check(fam)
    assert [n for n, _ in rep.rows] == list(theorems.MOLLIFIER_LEVELS)
    assert rep.passed
    assert rep.details["bound_ok"] and rep.details["monotone_ok"]
    assert rep.details["fitted_slope"] >= 0.9
    jump = gridfn.from_scalar(BOX1, g, (t > 0.5).astype(float))
    with pytest.raises(ContractError, match="shift-quotient"):
        theorems.mollifier_family_check([jump])
    with pytest.raises(ContractError):
        theorems.mollifier_family_check([])


def test_reflection_extension_report():
    u = _sin_member(64)
    rep = theorems.reflection_extension_report(u, pad=8)
    assert rep.passed
    assert rep.details["restriction_exact"] is True
    assert dict(rep.rows)["w_norm_ratio"] <= 3.0


def test_tensor_extend_exact_on_integer_data():
    rng = np.random.default_rng(42)
    T = rng.integers(-3, 4, size=(8, 8)).astype(float)
    rep = theorems.tensor_extend(T, h_dim=3)
    assert rep.passed and rep.details["size"] == 8 and rep.details["h_dim"] == 3
    f = rng.integers(-5, 6, size=8).astype(float)
    x = np.array([1.0, -2.0, 0.5])
    # T x I_H is T @ U on (node, H-coordinate) arrays: on a pure tensor T
    # acts on the scalar factor, bit-exactly for integer data
    assert np.array_equal(T @ np.outer(f, x), np.outer(T @ f, x))


def _svd_basis(n, seed):
    """Two random orthogonal n x n matrices."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(n, n)))[0], np.linalg.qr(rng.normal(size=(n, n)))[0]


def _tied(rel):
    """32 x 32 with singular values spread over [0.1, 1], the top two 1 and 1 - rel."""
    U, W = _svd_basis(32, 1)
    s = np.linspace(0.1, 1.0, 32)
    s[-2] = 1.0 - rel
    return U @ np.diag(s) @ W.T


KRYLOV_CASES = {
    "tied-1e-6": lambda: _tied(1e-6),  # the power iteration stopped 6.2e-7 off
    "tied-1e-7": lambda: _tied(1e-7),  # and 6.6e-8 off, both FAIL
    "orthogonal": lambda: _svd_basis(9, 2)[0],
    "zero": lambda: np.zeros((6, 6)),
    "rank-one": lambda: np.outer(np.arange(1.0, 6.0), [2.0, -1.0, 0.5, 3.0, 1.0]),
    "one-by-one": lambda: np.array([[-3.0]]),
    "identity": lambda: np.eye(7),
    "shift": lambda: np.eye(12, k=1),
    "integer": lambda: np.random.default_rng(5).integers(-4, 5, size=(16, 16)).astype(float),
}


def _counted_solves(monkeypatch):
    """Record, per Krylov solve, the number of operator applications."""
    counts = []
    solve = theorems._top_eigenvalue

    def counting(apply, V, size):
        counts.append(0)

        def counted(U):
            counts[-1] += 1
            return apply(U)

        return solve(counted, V, size)

    monkeypatch.setattr(theorems, "_top_eigenvalue", counting)
    return counts


def test_tensor_extend_hilbert_case(monkeypatch):
    counts = _counted_solves(monkeypatch)
    rng = np.random.default_rng(41)
    sizes = []
    for _ in range(200):
        n = int(rng.integers(1, 33))
        T = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        rep = theorems.tensor_extend(T, h_dim=int(rng.integers(1, 9)), seed=int(rng.integers(1000)))
        assert rep.passed
        norms = dict(rep.rows)
        norm_scalar, norm_tensor = norms["norm_scalar"], norms["norm_tensor"]
        assert norm_scalar == pytest.approx(np.linalg.norm(T, 2), rel=1e-12)
        assert abs(norm_tensor - norm_scalar) <= 1e-12 * max(1.0, norm_scalar)
        sizes.append(n)
    # at most n operator applications per n x n matrix
    assert all(count <= size for count, size in zip(counts, sizes))


@pytest.mark.parametrize("h_dim", [1, 8])
@pytest.mark.parametrize("case", sorted(KRYLOV_CASES))
def test_tensor_extend_krylov_norm(case, h_dim, monkeypatch):
    T = KRYLOV_CASES[case]()
    counts = _counted_solves(monkeypatch)
    norm_T = np.linalg.norm(T, 2)
    for seed in range(3):
        rep = theorems.tensor_extend(T, h_dim, seed=seed)
        assert rep.passed and rep.details["method"] == "svd_vs_krylov"
        norm_tensor = dict(rep.rows)["norm_tensor"]
        assert abs(norm_tensor - norm_T) <= 1e-12 * max(1.0, norm_T), (seed, norm_tensor)
    # (T^T T) x I_H has at most n distinct eigenvalues: n applications span
    # an invariant Krylov space
    assert len(counts) == 3 and 1 <= max(counts) <= T.shape[0], counts


def test_tensor_extend_validation():
    with pytest.raises(DimensionMismatchError):
        theorems.tensor_extend(np.ones((2, 3)), h_dim=1)
    with pytest.raises(ContractError):
        theorems.tensor_extend(np.eye(2), h_dim=0)
