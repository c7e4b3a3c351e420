"""Quantitative checks of the structure theorems.

Every check reduces a theorem about W^{1,p}(Omega, X) to measurable grid
quantities: embedding constants transfer from scalar probes, Poincaré
against the discrete Dirichlet eigenvalue, zero-boundary-trace
characterizations, continuity of the norm map, compactness via
covering-number stability, uniform mollifier approximation, reflection
extension bounds, and the tensor extension of scalar operators to
Hilbert-valued functions.  The paper states these for every p; each check
here runs at p = ``gridfn.SOBOLEV_P`` = 2, where the sharp Poincaré
constant is pi/L and W^{1,2} embeds in L^EMBEDDING_R up to d = 4.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import _kernels
from .banach import SpaceDescriptor
from .calculus import dq_criterion
from .errors import (
    ContractError,
    DimensionMismatchError,
    check_count,
    check_exponent,
    check_finite,
    check_list,
    check_real,
    real_array,
)
from .gridfn import (
    SOBOLEV_P,
    BoxDomain,
    GridFunction,
    GridSpec,
    apply_functional,
    bochner_norm,
    boundary_norm,
    extend_reflect,
    finite_difference,
    from_scalar,
    gf_sub,
    grid_centers,
    mollify,
    pointwise_norm_function,
    w_norm,
)
from .reports import Report, fit_loglog

#: scalar probes per corpus (the steep fronts and square-root profile included)
PROBE_COUNT = 8
#: unit bound of a certified Aubin-Lions family, up to this rounding slack
AUBIN_LIONS_BOUND_TOL = 1e-6
#: a stable family keeps N(eps) within this factor of the coarsest level
AUBIN_LIONS_GROWTH_CAP = 2.0
#: the uniform mollifier bound is slack * sqrt(d) * c_family / n
MOLLIFIER_SLACK = 1.25
#: relative slack of the Poincaré inequality against the sharp constant
POINCARE_EPS = 0.01
#: the scalar W-distance must fall at least at this order in the vector one
NORM_MAP_ORDER_MIN = 0.9
#: covering radii at which an Aubin-Lions family's N(eps) is counted
AUBIN_LIONS_EPS = (0.05, 0.1, 0.2)
#: the L^r space the embedding check compares W^{1,2} against
EMBEDDING_R = 4.0
#: mollifier levels n (support radius 1/n) of the uniform approximation check
MOLLIFIER_LEVELS = (8, 16, 32)


# ---------------------------------------------------------------------------
# scalar probe corpus (empirical scalar constants)
# ---------------------------------------------------------------------------


def scalar_probe_corpus(
    domain: BoxDomain, grid: GridSpec, rng: np.random.Generator
) -> list[GridFunction]:
    """PROBE_COUNT seeded scalar samples used to measure scalar
    embedding/Hölder constants on a given grid: random low-order trig
    blends, steep tanh fronts (near-extremal for Hölder quotients), and a
    square-root profile (near-extremal for the d=1, p=2 Hölder seminorm)."""
    pts = grid_centers(domain, grid)
    d = domain.d
    span = domain.hi - domain.lo
    xi = (pts - domain.lo) / span  # normalized coordinates in (0,1)^d
    out = []
    for _ in range(PROBE_COUNT - 3):
        g = np.zeros(grid.n)
        for k in range(1, 4):
            for j in range(d):
                g += rng.normal() * np.sin(np.pi * k * xi[..., j])
                g += rng.normal() * np.cos(np.pi * k * xi[..., j])
        out.append(from_scalar(domain, grid, g))
    h = float(np.max(grid.spacing(domain)))
    for width in (4.0 * h, 16.0 * h):
        c = 0.37 + 0.2 * rng.random()
        out.append(from_scalar(domain, grid, np.tanh((xi[..., 0] - c) / width)))
    out.append(from_scalar(domain, grid, np.sqrt(xi[..., 0])))
    return out


# ---------------------------------------------------------------------------
# embedding constant transfer
# ---------------------------------------------------------------------------


def embedding_check(u: GridFunction, seed: int = 0) -> Report:
    """The vector L^r-vs-W^{1,p} ratio (r = EMBEDDING_R, p = SOBOLEV_P)
    never beats the scalar one.

    The scalar constant is measured on a seeded probe corpus plus the
    pointwise-norm function of u itself (whose L^r norm matches u's
    bit-exactly while its W-norm can only be smaller).
    """
    d = u.domain.d
    if d > 4:  # the Sobolev exponent 2d/(d-2) falls below EMBEDDING_R
        raise ContractError(f"W^{{1,2}} does not embed in L^4 in d={d}")
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    corpus = scalar_probe_corpus(u.domain, u.grid, rng)
    corpus.append(pointwise_norm_function(u))
    c_scalar = 0.0
    for g in corpus:
        wn = w_norm(g)
        if wn > 0.0:
            c_scalar = max(c_scalar, bochner_norm(g, EMBEDDING_R) / wn)
    wn_u = w_norm(u)
    ratio_u = bochner_norm(u, EMBEDDING_R) / wn_u if wn_u > 0.0 else 0.0
    ok = ratio_u <= c_scalar * (1.0 + 1e-6)
    ror = ratio_u / c_scalar if c_scalar else 0.0
    return Report(
        name="embedding_check",
        rows=[("vector_ratio", ratio_u), ("scalar_constant", c_scalar)],
        verdict="PASS" if ok else "FAIL",
        details={"p": SOBOLEV_P, "r": EMBEDDING_R, "ratio_of_ratios": ror},
    )


# ---------------------------------------------------------------------------
# Poincaré with the sharp directional constant
# ---------------------------------------------------------------------------


def _rayleigh_eigenvalue(diag, off, v, h) -> float:
    """Rayleigh quotient v^T A v / v^T v of the symmetric tridiagonal A
    (diagonal ``diag``, off-diagonals ``off``) at v, checked to be an
    eigenvalue: max|Av - lambda v| must stay within 16 eps max|v| / h^2,
    a few times the rounding of one row of A v (entries of size 1/h^2)."""
    av = diag * v
    av[1:] += off * v[:-1]
    av[:-1] += off * v[1:]
    lam = float(np.sum(v * av) / np.sum(v * v))
    residual = float(np.max(np.abs(av - lam * v)))
    if residual > 16.0 * np.finfo(float).eps * float(np.max(np.abs(v))) / h**2:
        raise ContractError(
            f"dirichlet_eigenvalue: n={len(v)} profile is no eigenvector, "
            f"residual max|Av - lambda v| = {residual:.3e}"
        )
    return lam


def dirichlet_eigenvalue(n: int) -> float:
    """Smallest eigenvalue of the cell-centered second-difference operator
    on n cells of the unit interval with zero boundary values
    (odd-reflection ghost cells); converges to pi^2 at second order.

    A has diagonal 2/h^2, end entries 3/h^2 (the ghost cell -u_0 adds one
    more 1/h^2) and off-diagonals -1/h^2.  The sampled profile
    v_i = sin(pi (i + 1/2) h) is an eigenvector of A, and it is positive.
    By Perron-Frobenius applied to c I - A (nonnegative and irreducible for
    large c, since A is tridiagonal with negative off-diagonals), the one
    eigenvector without sign change belongs to the largest eigenvalue of
    c I - A, that is to the smallest eigenvalue of A.  So the Rayleigh
    quotient at v is that eigenvalue; ``_rayleigh_eigenvalue`` checks that
    v is an eigenvector up to rounding.  n must be an integer >= 2, as for
    ``GridSpec``: one cell has no interior node pair.
    """
    h = 1.0 / check_count("n", n, least=2)
    diag = np.full(n, 2.0 / h**2)
    diag[0] = diag[-1] = 3.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    v = np.sin(math.pi * (np.arange(n) + 0.5) * h)
    return _rayleigh_eigenvalue(diag, off, v, h)


def poincare_check(u: GridFunction) -> Report:
    """|D_0 u|_{L^2} >= C |u|_{L^2} (1 - POINCARE_EPS) for zero-trace u,
    with the sharp constant C = pi/L on a first axis of length L (C^2 is the
    first Dirichlet eigenvalue); requires w0_membership first."""
    if not w0_membership(u).passed:
        raise ContractError("poincare_check requires a zero-trace function")
    length = float(u.domain.hi[0] - u.domain.lo[0])
    c = math.pi / length
    un = bochner_norm(u, SOBOLEV_P)
    dn = bochner_norm(finite_difference(u)[0], SOBOLEV_P)
    ratio = dn / un if un > 0.0 else math.inf
    ok = ratio >= c * (1.0 - POINCARE_EPS)
    return Report(
        name="poincare_check",
        rows=[("derivative_norm", dn), ("function_norm", un), ("constant", c)],
        verdict="PASS" if ok else "FAIL",
        details={"ratio": ratio, "p": SOBOLEV_P, "eps": POINCARE_EPS},
    )


# ---------------------------------------------------------------------------
# zero boundary values
# ---------------------------------------------------------------------------


def w0_membership(u: GridFunction) -> Report:
    """Zero-trace verdict (MEMBER or NOT_MEMBER) from the boundary norm of
    the pointwise-norm function, thresholded at tol*(1 + |u|_W) with
    tol = 10 h^2.  rows: one (h, boundary norm)."""
    h = float(np.max(u.grid.spacing(u.domain)))
    tol = 10.0 * h * h
    bnorm = boundary_norm(pointwise_norm_function(u))
    wn = w_norm(u)
    threshold = tol * (1.0 + wn)
    return Report(
        name="w0_membership",
        rows=[(h, bnorm)],
        verdict="MEMBER" if bnorm <= threshold else "NOT_MEMBER",
        details={"threshold": threshold, "tol": tol, "p": SOBOLEV_P, "w_norm": wn},
    )


def weak_w0_check(u: GridFunction) -> Report:
    """Zero trace through separating functionals: u has zero trace exactly
    when every coordinate pairing <u, e_i> does.  rows: the boundary norm
    of each pairing."""
    reps = [w0_membership(apply_functional(u, e)) for e in np.eye(u.space.dim)]
    return Report(
        name="weak_w0_check",
        rows=[(f"functional[{i}]", rep.rows[0][1]) for i, rep in enumerate(reps)],
        verdict="MEMBER" if all(rep.passed for rep in reps) else "NOT_MEMBER",
        details={},
    )


# ---------------------------------------------------------------------------
# continuity of the norm map
# ---------------------------------------------------------------------------


def norm_map_continuity_check(seq: list[GridFunction], u: GridFunction) -> Report:
    """u_k -> u in W^{1,p}(Omega, X) forces |u_k(.)| -> |u(.)| in scalar
    W^{1,p}; measured as the scalar W-distance tracking the vector one at
    a log-log order of at least NORM_MAP_ORDER_MIN.  Fewer than two pairs
    above the floor fit no order: the slope is nan and the verdict FAIL."""
    gu = pointwise_norm_function(u)
    floor = 1e-12 * (1.0 + w_norm(u))
    pairs = []
    for uk in seq:
        dvec = w_norm(gf_sub(uk, u))
        dsca = w_norm(gf_sub(pointwise_norm_function(uk), gu))
        pairs.append((dvec, dsca))
    above = [(v, s) for v, s in pairs if s > floor and v > 0.0]
    slope, r2 = fit_loglog([v for v, _ in above], [s for _, s in above])
    verdict = "PASS" if slope >= NORM_MAP_ORDER_MIN else "FAIL"
    return Report(
        name="norm_map_continuity_check",
        rows=pairs,
        verdict=verdict,
        details={
            "fitted_slope": slope,
            "residual": r2,
            "floor": floor,
            "sequence_length": len(seq),
        },
    )


# ---------------------------------------------------------------------------
# compactness probe via covering numbers
# ---------------------------------------------------------------------------


class Built:
    """A sized sequence of ``count`` items whose item ``k`` is ``build(k)``,
    built each time it is read and kept by nobody here.

    ``aubin_lions_probe`` takes its levels as any sized sequence, and
    ``covering_counts`` its members; the catalog's Aubin-Lions entries
    pass ``Built`` levels, and ``aubin_lions_compact`` ``Built`` members,
    so that only what the probe is reading at the moment is in memory."""

    def __init__(self, count: int, build):
        self.count, self.build = count, build

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int):
        if not 0 <= k < self.count:
            raise IndexError(k)
        return self.build(k)


def _tile(members: Sequence[GridFunction], tile: slice, shape) -> list[np.ndarray]:
    """The node arrays, of ``shape``, of the members in ``tile``, each read once."""
    return [members[k].values.reshape(shape) for k in range(tile.start, tile.stop)]


def covering_counts(members: Sequence[GridFunction], p: float, eps_list) -> list[int]:
    """N(eps) from one deterministic farthest-point traversal (start at the
    first member, ties to the lowest index).

    ``members`` is any sized sequence, read by index (a ``Built`` family
    builds a member each time it is read).  Every member must share member
    0's domain, grid and value space, whose norm measures the distances,
    p must be >= 1 (or inf) and every eps a real >= 0 (inf included);
    anything else is rejected, in a first pass over the members, before
    any distance is formed.

    The distances are then formed one pair of member tiles at a time.  A
    tile is a node block's worth of members (``_kernels.node_blocks`` with
    rows of nodes times the value dimension); for each tile I its members
    are read once, and for each tile J >= I so are J's, so at most two
    tiles are held at once and a ``Built`` member in the t-th tile is
    built 1 + t times here.  For each member i of I the later members of J
    are differenced against it straight into one buffer and normed in
    place, so no copy of the family is made.  The buffer is a stack of
    members (``np.stack``, grown when a tile has more later members),
    because a stack keeps the memory order that the members share (F
    order for ``(coef @ basis).T``), as a stack of the whole family does,
    and the row sums of the norms round by that order
    (``_kernels.row_sum``).  Its member axis is outermost, so its leading
    members have the strides of a stack of that many.  Each distance, a
    sum over the nodes of one member, is therefore the whole-stack one bit
    for bit.
    """
    if not members:
        raise ContractError("covering_counts needs at least one member")
    check_exponent("p", p)
    eps_list = check_list("eps_list", eps_list)
    for eps in eps_list:
        check_real("eps", eps, "a real >= 0", lambda e: e >= 0.0)
    m = len(members)
    # no member read here outlives its check: the tile pass holds two tiles
    first = members[0]
    domain, grid, space = first.domain, first.grid, first.space
    shape = (first.node_count, space.dim)
    del first
    for i in range(1, m):
        mm = members[i]
        for what, same in (
            ("domain", mm.domain == domain),
            ("grid", mm.grid == grid),
            ("space", mm.space == space),
        ):
            if not same:
                raise DimensionMismatchError(f"member {i} differs from member 0 in its {what}")
        del mm
    vol = float(np.prod(grid.spacing(domain)))
    tiles = _kernels.node_blocks(m, shape[0] * shape[1])
    D = np.zeros((m, m))
    buf = np.empty(0)  # the longest stack so far
    for t, ti in enumerate(tiles):
        rows = _tile(members, ti, shape)
        for tj in tiles[t:]:
            # the tile read before is dropped before this one is read
            cols = rows if tj is ti else _tile(members, tj, shape)
            for i in range(ti.start, ti.stop):
                lo = max(i + 1, tj.start)
                if lo >= tj.stop:
                    continue
                if len(buf) < tj.stop - lo:
                    buf = np.stack(cols[lo - tj.start :])
                diff = buf[: tj.stop - lo]
                for row, j in zip(diff, range(lo - tj.start, len(cols))):
                    np.subtract(cols[j], rows[i - ti.start], out=row)
                g = _kernels.row_norms(diff, space.exponent, space.weights, out=diff)
                if math.isinf(p):
                    dd = g.max(axis=1)
                else:
                    dd = (np.sum(g**p, axis=1) * vol) ** (1.0 / p)
                D[i, lo : tj.stop] = dd
                D[lo : tj.stop, i] = dd
            del cols
        del rows
    radii = _kernels.greedy_radii(D)
    return [int(np.argmax(radii <= eps) + 1) for eps in eps_list]


def _certify_level(lvl: int, fam: Sequence[GridFunction], ys: SpaceDescriptor):
    """Raise unless every member of level ``lvl`` is unit-bounded in
    W^{1,p}(Omega, X) and in L^p(Omega, ys), up to AUBIN_LIONS_BOUND_TOL."""
    for i, mem in enumerate(fam):
        wn = w_norm(mem)
        if wn > 1.0 + AUBIN_LIONS_BOUND_TOL:
            raise ContractError(f"member {i} at level {lvl} is not W-unit-bounded: {wn}")
        ymem = GridFunction(mem.domain, mem.grid, ys, mem.values)
        yn = bochner_norm(ymem, SOBOLEV_P)
        if yn > 1.0 + AUBIN_LIONS_BOUND_TOL:
            raise ContractError(f"member {i} at level {lvl} is not Y-unit-bounded: {yn}")


def aubin_lions_probe(
    level_families: Sequence[Sequence[GridFunction]], y_spaces: list[SpaceDescriptor] | None
) -> Report:
    """Covering-count stability of a W-and-Y bounded family under joint
    grid/value-space refinement.

    Families certified unit-bounded in W^{1,p}(Omega, X) and L^p(Omega, Y)
    (Y the compactly-embedded weighted companion) keep N(eps) within a
    factor AUBIN_LIONS_GROWTH_CAP of the coarsest level; families bounded only in
    L^p(Omega, X) are free to grow and earn the GROWING verdict.  The
    family is certified exactly when ``y_spaces`` is given; p = SOBOLEV_P.

    ``level_families`` is any sized sequence of levels, and each level any
    sized sequence of members, such as a list or a ``Built``.  Only the
    number of levels is read up front, so the one-Y-space-per-level check
    runs before any work.  The levels are then read by index, one at a
    time, and each is checked against level 0's member count, certified
    and counted before the next is read; no reference to it is kept past
    its count, so ``Built`` levels (as the catalog's Aubin-Lions entries
    pass) put one level in memory at a time.  ``covering_counts`` reads a
    level's members one tile at a time, at most two tiles at once, so a
    level of ``Built`` members (as ``aubin_lions_compact`` passes) is never
    whole either.

    rows: the greedy-net covering counts N(eps) of each level, one per eps
    in AUBIN_LIONS_EPS.  ``details["max_growth"]``, which the verdict
    compares with the cap, is the largest ratio of a level's N(eps) to the
    coarsest level's, over the eps.
    """
    if len(level_families) == 0:
        raise ContractError("need at least one level with at least one member")
    certify = y_spaces is not None
    if certify and len(y_spaces) != len(level_families):
        raise ContractError("certification needs one Y space per level")
    counts, size = [], None
    # read by index, and the level dropped before the next is read: an
    # iterator's frame or enumerate's result tuple would still hold it
    # while the next level is built
    for lvl in range(len(level_families)):
        fam = level_families[lvl]
        if size is None:
            if not fam:
                raise ContractError("need at least one level with at least one member")
            size = len(fam)
        elif len(fam) != size:
            raise ContractError("all levels must carry the same member count")
        if certify:
            _certify_level(lvl, fam, y_spaces[lvl])
        counts.append(covering_counts(fam, SOBOLEV_P, AUBIN_LIONS_EPS))
        del fam
    growth = max(max(c[k] for c in counts) / counts[0][k] for k in range(len(AUBIN_LIONS_EPS)))
    return Report(
        name="aubin_lions_probe",
        rows=counts,
        verdict="STABLE" if growth <= AUBIN_LIONS_GROWTH_CAP else "GROWING",
        details={
            "eps_list": AUBIN_LIONS_EPS,
            "member_count": size,
            "p": SOBOLEV_P,
            "certified": certify,
            "growth_cap": AUBIN_LIONS_GROWTH_CAP,
            "max_growth": growth,
        },
    )


# ---------------------------------------------------------------------------
# uniform mollifier approximation
# ---------------------------------------------------------------------------


def mollifier_family_check(family: list[GridFunction]) -> Report:
    """sup over a shift-bounded family of |mollify(f, n) - f|_{L^2} decays
    like C/n uniformly over n in MOLLIFIER_LEVELS; the constant comes from
    the family's own difference-quotient criterion."""
    if not family:
        raise ContractError("family is empty")
    d = family[0].domain.d
    c_family = 0.0
    for f in family:
        rep = dq_criterion(f, SOBOLEV_P)
        if not rep.passed:
            raise ContractError("family member fails the shift-quotient bound")
        c_family = max(c_family, rep.details["c_est"])
    sups = []
    for n in MOLLIFIER_LEVELS:
        worst = max(bochner_norm(gf_sub(mollify(f, n), f), SOBOLEV_P) for f in family)
        sups.append((n, worst))
    bound_ok = all(
        err <= MOLLIFIER_SLACK * math.sqrt(d) * c_family / n + 1e-15 for n, err in sups
    )
    mono_ok = all(sups[i + 1][1] <= sups[i][1] * (1.0 + 1e-9) for i in range(len(sups) - 1))
    order, r2 = fit_loglog([1.0 / n for n, _ in sups], [max(e, 1e-300) for _, e in sups])
    return Report(
        name="mollifier_family_check",
        rows=sups,
        verdict="PASS" if (bound_ok and mono_ok) else "FAIL",
        details={
            "fitted_slope": order,
            "residual": r2,
            "c_family": c_family,
            "bound_ok": bound_ok,
            "monotone_ok": mono_ok,
        },
    )


# ---------------------------------------------------------------------------
# reflection extension bound
# ---------------------------------------------------------------------------


def reflection_extension_report(u: GridFunction, pad: int) -> Report:
    """Even reflection restricts back exactly and grows the W-norm by at
    most 3^d (crude volume bound)."""
    ext = extend_reflect(u, pad)
    d = u.domain.d
    sl = tuple(slice(pad, pad + n) for n in u.grid.n)
    exact = bool(np.array_equal(ext.values[sl], u.values))
    wu = w_norm(u)
    we = w_norm(ext)
    ratio = we / wu if wu > 0.0 else 1.0
    ok = exact and ratio <= 3.0**d + 1e-9
    return Report(
        name="reflection_extension",
        rows=[("w_norm_ratio", ratio)],
        verdict="PASS" if ok else "FAIL",
        details={"restriction_exact": exact, "bound": 3.0**d, "pad": pad},
    )


# ---------------------------------------------------------------------------
# tensor extension to Hilbert-valued functions
# ---------------------------------------------------------------------------


def _top_eigenvalue(apply, V: np.ndarray, size: int) -> float:
    """Largest eigenvalue of the symmetric positive semidefinite operator
    ``apply`` on arrays shaped like V, which has at most ``size`` distinct
    eigenvalues: a Krylov (Lanczos) solve started at V.

    Each new direction is the operator applied to the last one,
    orthogonalised twice against the basis.  When the second pass shortens
    it by a factor of sqrt(2) or more, the direction lies in the basis's
    span to rounding (Kahan and Parlett's "twice is enough"), so the basis
    spans an invariant space and stops.  Otherwise the direction is
    orthogonal to the basis to rounding, and the basis grows, to ``size``
    directions at most.  The Krylov space of V under such an
    operator is invariant after at most ``size`` directions, so the
    largest eigenvalue of the basis's projection (Rayleigh-Ritz) is the
    operator's largest eigenvalue to rounding, however close the
    eigenvalues lie.
    """
    Q = np.empty((size, V.size))
    AQ = np.empty_like(Q)
    q = V.ravel() / math.sqrt(V.ravel() @ V.ravel())
    k = 0
    while True:
        Q[k] = q
        AQ[k] = apply(q.reshape(V.shape)).ravel()
        k += 1
        if k == size:
            break
        q = AQ[k - 1].copy()
        for _ in range(2):
            left = q @ q  # squared length before this pass
            q -= (Q[:k] @ q) @ Q[:k]
        kept = q @ q
        if 2.0 * kept <= left:
            break
        q /= math.sqrt(kept)
    H = Q[:k] @ AQ[:k].T
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])


def tensor_extend(T, h_dim: int, seed: int = 0) -> Report:
    """Norm of a scalar grid operator T extended to H-valued functions
    coordinatewise: T x I_H maps a (node, H-coordinate) array U to T @ U.

    At p = 2 the extension's operator norm is compared against the scalar
    spectral norm (SVD).  The extension's norm is the square root of the
    largest eigenvalue of the block operator U -> T^T (T U), which is
    (T^T T) x I_H and so has at most n distinct eigenvalues for an n x n
    T: a Krylov solve of at most n operator applications
    (``_top_eigenvalue``) finds it to rounding from a seeded start.

    rows: ("norm_scalar", |T|) and ("norm_tensor", |T x I_H|).
    """
    T = real_array("T", T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DimensionMismatchError("T must be a square matrix")
    if T.size == 0:
        raise DimensionMismatchError("T must be nonempty")
    check_finite("T", T)
    h_dim = check_count("h_dim", h_dim)
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    norm_scalar = float(np.linalg.norm(T, 2))
    n = T.shape[0]
    top = _top_eigenvalue(lambda U: T.T @ (T @ U), rng.normal(size=(n, h_dim)), n)
    norm_tensor = math.sqrt(max(top, 0.0))
    gap = abs(norm_tensor - norm_scalar)
    return Report(
        name="tensor_extend",
        rows=[("norm_scalar", norm_scalar), ("norm_tensor", norm_tensor)],
        verdict="PASS" if gap <= 1e-8 * max(1.0, norm_scalar) else "FAIL",
        details={
            "gap": gap,
            "method": "svd_vs_krylov",
            "p": SOBOLEV_P,
            "h_dim": h_dim,
            "size": T.shape[0],
        },
    )
