"""Difference-quotient calculus for vector-valued grid functions.

The operations here turn the qualitative statements (difference-quotient
membership criterion, Lipschitz composition, one-sided chain rules, lattice
chain rules, disjoint-support preservation, quotient and product rules,
Hölder seminorms) into measurable quantities on a grid, each with a report
recording what was compared and how well it agreed.  Every chain-rule
field is checked by one comparison, ``_Comparison``: ``l1_err[j]`` is the
Bochner 1-norm of fields[j] - D_j(target) over the unflagged interior
nodes, one node block at a time (``_compare`` for whole fields; the one
chain-rule pass settles each block as it forms it, against F(u)).  The
norm, lattice and quotient rule fields report it as the rows
``l1_err[j]`` and ``flagged_fraction[j]`` per axis j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, banach
from .banach import PAIR_TOL, SpaceDescriptor, scalar_space
from .errors import (
    CapabilityError,
    ContractError,
    DimensionMismatchError,
    GridError,
    OrderContinuityError,
    check_count,
    check_exponent,
    check_finite,
    check_list,
    check_real,
    real_array,
)
from .gridfn import (
    SOBOLEV_P,
    GridFunction,
    GridSpec,
    _difference_rows,
    _lp,
    finite_difference,
    from_scalar,
    grid_centers,
    interior_mask,
    pointwise_norms,
    shift_difference_norm,
    unit_box,
)
from .reports import Report, fit_loglog

ZERO_TOL = banach.ZERO_TOL

#: DIVERGENT requires a log-log slope below this with a tight fit
DIVERGENCE_SLOPE = -0.1
#: ... over at least this many step sizes with at least this R^2
DIVERGENCE_MIN_STEPS = 4
DIVERGENCE_MIN_R2 = 0.99
#: step sizes (in cells) of the criterion's shift quotients, by default
DQ_STEPS = (1, 2, 4, 8, 16)
#: seeded node-value pairs on which a Lipschitz constant is validated
LIPSCHITZ_PAIRS = 10_000


@dataclass
class FieldResult:
    """Derivative fields D_j (one per axis) with the report that checked them.

    ``flags[j]`` marks the nodes of direction j that the report left out of
    its comparison (beyond the boundary ring, which every check masks).
    """

    fields: list[GridFunction]
    flags: list[np.ndarray]
    report: Report


class _Comparison:
    """The comparison every chain-rule check makes: per field k, the Bochner
    p-norm of fields[k] - D_j(target), j = k mod d, over the interior nodes
    that flags[k] leaves in, one block of first-axis rows at a time.

    The target is a grid function of ``space`` on ``grid`` over
    ``domain``.  ``settle(blk, window, first, fields, flags)`` takes field
    k and its flags on the rows ``blk`` (any shape that holds those nodes
    in order), against a window of the target: its node array's rows from
    ``first`` on, which hold the rows of ``blk`` and, within the grid, one
    halo row on each side (``gridfn._difference_rows``); the whole target
    is the window at ``first`` = 0.  D_j(target) and the node norms of the
    differences run in one reused block buffer of ``rows`` first-axis
    rows.  Each block appends the norms of the nodes it keeps to one
    array per field, which so holds them in node order, and ``errors``
    runs ``_lp`` once over each array, in place (so only once).  In a
    space of dim 1, exponent 1 and weight 1 (``scalar_space``) the norm
    |x| * 1.0 + 0.0 is |x|, bit for bit, and ``_lp`` takes |.| of the
    values it sums, so there the differences are kept as they are.
    """

    def __init__(self, space: SpaceDescriptor, domain, grid, count: int, rows: int):
        self.space, self.grid = space, grid
        self.h = grid.spacing(domain)
        self.signed = space.dim == 1 and space.exponent == 1.0 and space.weights[0] == 1.0
        self.diff = np.empty((rows,) + grid.n[1:] + (space.dim,))
        inner = math.prod(k - 2 for k in grid.n)
        # one array for all axes: glibc gave two arrays of this size back to
        # the system when freed, so each comparison faulted them in afresh
        # (about 8 000 page faults per norm_chain_rule call at refine 2)
        self.kept = np.empty((count, inner))
        self.ends = [0] * count
        self.flagged = [0] * count

    def settle(
        self, blk: slice, window: np.ndarray, first: int,
        fields: list[np.ndarray], flags: list[np.ndarray],
    ):
        part = self.diff[: blk.stop - blk.start]
        inner = interior_mask(self.grid, blk)
        for k, (f, flag) in enumerate(zip(fields, flags)):
            _difference_rows(window, first, self.grid.n[0], self.h, k % len(self.h), blk, part)
            np.subtract(f.reshape(part.shape), part, out=part)
            flag = flag.reshape(inner.shape)
            norms = part[..., 0] if self.signed else banach.norm(self.space, part)
            kept = norms[inner & ~flag]
            at = self.ends[k]
            self.ends[k] += kept.size
            self.kept[k][at : self.ends[k]] = kept
            self.flagged[k] += int(np.count_nonzero(flag))

    def errors(self, p: float) -> list[float]:
        vol = float(np.prod(self.h))
        return [_lp(g[:end], vol, p, out=g[:end]) for g, end in zip(self.kept, self.ends)]

    def report(self, name: str, **details) -> Report:
        """The chain-rule report: per axis j the rows ``l1_err[j]`` (p = 1)
        and ``flagged_fraction[j]`` (over all nodes), the detail
        ``l1_err_total`` and the caller's ``details``."""
        errs = self.errors(1.0)
        nodes = math.prod(self.grid.n)
        rows = []
        for j, err in enumerate(errs):
            rows += [(f"l1_err[{j}]", err), (f"flagged_fraction[{j}]", self.flagged[j] / nodes)]
        return Report(
            name=name, rows=rows, verdict="MEASURED",
            details={"l1_err_total": sum(errs), **details},
        )


def _compare(
    target: GridFunction, fields: list[GridFunction], flags: list[np.ndarray]
) -> _Comparison:
    """The ``_Comparison`` of whole fields and flags against the whole
    target, settled over the target's node blocks (``_kernels.node_blocks``)."""
    v = target.values
    blocks = _kernels.node_blocks(len(v), v[0].size)
    comparison = _Comparison(target.space, target.domain, target.grid, len(fields), blocks[0].stop)
    for blk in blocks:
        comparison.settle(
            blk, v, 0, [f.values[blk] for f in fields], [flag[blk] for flag in flags]
        )
    return comparison


# ---------------------------------------------------------------------------
# difference-quotient membership criterion
# ---------------------------------------------------------------------------


def dq_criterion(u: GridFunction, p: float, steps_list: tuple[int, ...] = DQ_STEPS) -> Report:
    """Bounded-shift-quotient test for Sobolev membership.

    A function with an L^p derivative field has quotients bounded by
    max_j |D_j u|_{L^p}; quotients blowing up like a negative power of h
    certify non-membership.  DIVERGENT requires slope < -0.1 with R^2 >=
    0.99 over at least 4 step sizes (in some direction).  A step that does
    not fit an axis is skipped there, but every axis needs at least one
    that fits: an empty ``steps_list``, or an axis no step fits, is
    rejected before any quotient is formed, so no verdict rests on no rows.

    rows: (direction j, steps, h, quotient) with
    quotient = |u(.+ steps*h_j e_j) - u|_{L^p(omega)} / (steps*h_j).
    details: ``c_est``, the largest quotient (the best lower bound for the
    directional-derivative norm maximum); ``slope`` and ``residual``, the
    most divergent direction's log-log fit; ``per_direction``; ``p``.

    The quotient pass is here; the fit and verdict are ``_dq_verdict``, so
    a caller that already holds the shift differences' node norms forms
    the same rows from them and gets the same report without norming the
    differences again: ``indicator_path_witness`` norms its bands of ones
    with the bits of ``gridfn.shift_node_norms`` without forming the path.
    """
    check_exponent("p", p)
    steps_list = check_list("steps_list", steps_list)
    steps_list = tuple(sorted(set(check_count("steps", s) for s in steps_list)))
    if not steps_list:
        raise ContractError("steps_list must be nonempty")
    for j, nj in enumerate(u.grid.n):
        if steps_list[0] >= nj:
            raise GridError(
                f"steps_list must be short enough for axis {j}: no step is below "
                f"its {nj} cells, got {list(steps_list)}"
            )
    h = u.grid.spacing(u.domain)
    rows = []
    for j in range(u.domain.d):
        for s in steps_list:
            if s < u.grid.n[j]:
                hh = s * h[j]
                rows.append((j, s, float(hh), float(shift_difference_norm(u, j, s, p) / hh)))
    return _dq_verdict(rows, u.domain.d, p)


def _dq_verdict(rows: list[tuple], d: int, p: float) -> Report:
    """The ``dq_criterion`` report of its quotient rows (j, steps, h,
    quotient) over d directions: a log-log fit per direction and the
    verdict of the most divergent one."""
    per_direction: dict[int, dict] = {}
    slope, r2 = math.nan, 0.0
    verdict = "BOUNDED"
    for j in range(d):
        hs = np.array([r[2] for r in rows if r[0] == j])
        qs = np.array([r[3] for r in rows if r[0] == j])
        pos = qs > 0.0
        if pos.sum() >= 2:
            sj, rj = fit_loglog(hs[pos], qs[pos])
        else:
            sj, rj = 0.0, 1.0
        per_direction[j] = {"slope": sj, "r2": rj, "n_steps": int(pos.sum())}
        if math.isnan(slope) or sj < slope:
            slope, r2 = sj, rj
            if (
                sj < DIVERGENCE_SLOPE
                and rj >= DIVERGENCE_MIN_R2
                and pos.sum() >= DIVERGENCE_MIN_STEPS
            ):
                verdict = "DIVERGENT"
    c_est = max((r[3] for r in rows), default=0.0)
    if math.isnan(slope):
        slope = 0.0
        r2 = 1.0
    return Report(
        name="dq_criterion",
        rows=rows,
        verdict=verdict,
        details={
            "p": p,
            "c_est": float(c_est),
            "slope": float(slope),
            "residual": float(r2),
            "per_direction": per_direction,
        },
    )


# ---------------------------------------------------------------------------
# Lipschitz composition
# ---------------------------------------------------------------------------


@dataclass
class LipschitzMap:
    """A Lipschitz map between value spaces, with optional one-sided data.

    ``rule`` maps a batch (N, source.dim) to (N, target.dim).
    ``onesided_batch``, when provided, returns the one-sided directional
    derivative pair (plus, minus), each (N, target.dim), at points X along
    directions V.
    """

    rule: object
    source: SpaceDescriptor
    target: SpaceDescriptor
    L: float
    onesided_batch: object = None
    name: str = "F"

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        return real_array(self.name, self.rule(X), (X.shape[0], self.target.dim))


def norm_lipschitz_map(space: SpaceDescriptor) -> LipschitzMap:
    """The norm of `space` as a 1-Lipschitz scalar map with one-sided data."""

    def _rule(X):
        return np.asarray(banach.norm(space, X))[:, None]

    def _onesided(X, V):
        plus, minus, _ = banach.one_sided_norm_derivative_batch(space, X, V)
        return plus[:, None], minus[:, None]

    return LipschitzMap(
        rule=_rule,
        onesided_batch=_onesided,
        source=space,
        target=scalar_space(),
        L=1.0,
        name="norm",
    )


def validate_lipschitz(
    F: LipschitzMap, u: GridFunction, rng: np.random.Generator
) -> float:
    """Empirical Lipschitz quotient of F over LIPSCHITZ_PAIRS seeded
    node-value pairs.

    Raises with the witness pair when the quotient exceeds L*(1+1e-9).
    With no sampled pair of distinct values (a constant u) it is 0.0.
    """
    X = u.values.reshape(-1, u.space.dim)
    n = X.shape[0]
    ii = rng.integers(0, n, size=LIPSCHITZ_PAIRS)
    jj = rng.integers(0, n, size=LIPSCHITZ_PAIRS)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    a, b = X[ii], X[jj]
    dx = np.asarray(banach.norm(F.source, a - b))
    nz = dx > 0.0
    ii, jj, a, b, dx = ii[nz], jj[nz], a[nz], b[nz], dx[nz]
    dy = np.asarray(banach.norm(F.target, F.apply_batch(a) - F.apply_batch(b)))
    if dx.size == 0:
        return 0.0
    quot = dy / dx
    worst = int(np.argmax(quot))
    qmax = float(quot[worst])
    if qmax > F.L * (1.0 + 1e-9):
        raise ContractError(
            f"{F.name} violates its Lipschitz constant {F.L}: quotient {qmax} "
            f"between node values #{ii[worst]} and #{jj[worst]} "
            f"({a[worst]!r} vs {b[worst]!r})"
        )
    return qmax


def compose_lipschitz(
    F: LipschitzMap, u: GridFunction, rng: np.random.Generator
) -> tuple[GridFunction, Report]:
    """F composed with u, plus the difference-quotient bound report.

    The composed field's central difference quotients are bounded by L
    times those of u at every interior node (the same two sample points on
    both sides), so the recorded excess should sit at rounding level; the
    boundary ring's one-sided stencil need not respect a Lipschitz map.
    """
    if u.space != F.source:
        raise DimensionMismatchError("u does not live in F's source space")
    qmax = validate_lipschitz(F, u, rng)
    flat = F.apply_batch(u.values.reshape(-1, u.space.dim))
    v = GridFunction(
        u.domain, u.grid, F.target, flat.reshape(u.grid.n + (F.target.dim,))
    )
    du = finite_difference(u)
    dv = finite_difference(v)
    max_excess = 0.0
    du_max = []
    h = u.grid.spacing(u.domain)
    inner = interior_mask(u.grid)
    for j in range(u.domain.d):
        lhs = pointwise_norms(dv[j])
        dnorm = pointwise_norms(du[j])
        max_excess = max(max_excess, float(np.max((lhs - F.L * dnorm)[inner])))
        du_max.append(float(np.max(dnorm)))
    tol = 1e-9 * (1.0 + F.L * max(du_max))
    report = Report(
        name=f"compose_lipschitz[{F.name}]",
        rows=[("max_excess", max_excess), ("empirical_quotient", qmax)],
        verdict="PASS" if max_excess <= tol else "FAIL",
        details={
            "L": F.L,
            "tolerance": tol,
            "max_excess_over_h": max_excess / float(np.min(h)),
        },
    )
    return v, report


# ---------------------------------------------------------------------------
# one-sided chain rule fields
# ---------------------------------------------------------------------------


def _chain_pass(u, n, who: str, keep_fields: bool, target, values, at, sides: int = 1):
    """The one pass of every chain rule D_j F(u) = F's one-sided sides along
    D_j u, over the node blocks (``_kernels.node_blocks``) of the grid
    function u (n None), or of the blueprint u's member at n cells per axis.
    F is given by ``values(X)``, the rows of X mapped into ``target``, and
    ``at(X, FX)``, which forms once per block what depends on its points
    alone and returns ``sides(j, H, fields, flag)``: that writes the
    ``sides`` fields along H = D_j u and the nodes left out.  Returns the
    ``_Comparison`` of the fields (the d of one side, then of the next)
    with D_j F(u), and the full-size fields and flags if ``keep_fields``.

    A block's window is its rows and one halo row on each side, within the
    grid; a window after the first opens with the last two rows of the one
    before, values and F-values, and realizes (a blueprint's, into one
    reused buffer), checks finite (``who`` names the caller) and maps only
    the rest.  No full-size derivative or F-value array is made."""
    domain, grid = (u.domain, u.grid) if n is None else (unit_box(u.d), GridSpec((n,) * u.d))
    dim, tdim, d, rows = u.space.dim, target.dim, domain.d, grid.n[0]
    per_row = math.prod(grid.n[1:])  # nodes per first-axis row
    blocks = _kernels.node_blocks(rows, per_row * dim)
    longest = blocks[0].stop - blocks[0].start
    if n is None:
        read = lambda first, last, carry, carried: u.values[first:last]
    else:
        buf, write = np.empty((longest + 2,) + grid.n[1:] + (dim,)), u.row_writer(n)

        def read(first, last, carry, carried):
            w = buf[: last - first]
            w[:carry] = buf[carried - carry : carried]
            write(first + carry, last, w[carry:])
            return w

    fbuf = np.empty(((longest + 2) * per_row, tdim))  # the window's F-values
    comparison = _Comparison(target, domain, grid, sides * d, longest)
    size = math.prod(grid.n) if keep_fields else longest * per_row
    kept = [np.empty((size, tdim)) for _ in range(sides * d)]
    flagged = [np.empty(size, dtype=bool) for _ in range(d)]
    diff = np.empty((longest,) + grid.n[1:] + (dim,))
    carried = 0  # rows of the window before
    for blk in blocks:
        first, last = max(blk.start - 1, 0), min(blk.stop + 1, rows)
        carry = 2 if blk.start else 0  # rows first, first + 1 closed the window before
        w = read(first, last, carry, carried)
        check_finite(who, w[carry:], first + carry)
        fw = fbuf[: (last - first) * per_row]
        fw[: carry * per_row] = fbuf[(carried - carry) * per_row : carried * per_row]
        fw[carry * per_row :] = values(w[carry:].reshape(-1, dim))
        carried = last - first
        own = slice(blk.start - first, blk.stop - first)  # the block's rows in w
        block_sides = at(w[own].reshape(-1, dim), fw[own.start * per_row : own.stop * per_row])
        part = diff[: blk.stop - blk.start]
        nodes = slice(blk.start * per_row, blk.stop * per_row)
        out = nodes if keep_fields else slice(0, nodes.stop - nodes.start)
        fields, flags = [f[out] for f in kept], [f[out] for f in flagged]
        for j in range(d):
            _difference_rows(w, first, rows, comparison.h, j, blk, part)
            block_sides(j, part.reshape(-1, dim), fields[j::d], flags[j])
        comparison.settle(blk, fw.reshape(w.shape[:-1] + (tdim,)), first, fields, flags * sides)
    if not keep_fields:
        return comparison, [], []
    fields = [GridFunction(domain, grid, target, f.reshape(grid.n + (tdim,))) for f in kept]
    return comparison, fields, [f.reshape(grid.n) for f in flagged]


def gateaux_chain_field(F: LipschitzMap, u: GridFunction) -> FieldResult:
    """Nodewise one-sided derivatives of F along the difference-quotient
    derivative directions of u, compared against the direct quotients of
    F(u).

    The almost-everywhere equality of the two one-sided fields shows up
    discretely as a plus/minus gap whose L^p norm (p = SOBOLEV_P) shrinks
    under refinement; both fields are also compared with
    finite_difference(F(u)) away from non-unique and boundary nodes.
    The result holds the plus fields, flagged at the non-unique nodes.
    """
    if F.onesided_batch is None:
        raise CapabilityError(f"{F.name} carries no one-sided derivative data")
    if u.space != F.source:
        raise DimensionMismatchError("u does not live in F's source space")
    gaps: list[list[np.ndarray]] = [[] for _ in range(u.domain.d)]

    def at(X, FX):
        def sides(j, H, fields, flag):
            for field, side in zip(fields, F.onesided_batch(X, H)):
                field[...] = real_array(F.name, side, (len(X), F.target.dim))
            gap = np.asarray(banach.norm(F.target, fields[0] - fields[1]))
            unique = gap <= PAIR_TOL * (1.0 + np.asarray(banach.norm(u.space, H)))
            np.logical_not(unique, out=flag)
            gaps[j].append(gap)

        return sides

    comparison, fields, flags = _chain_pass(u, None, "gateaux_chain_field", True, F.target,
                                            F.apply_batch, at, sides=2)
    errs = comparison.errors(SOBOLEV_P)
    table, directions = [], {}
    for j, (err_plus, err_minus) in enumerate(zip(errs, errs[u.domain.d :])):
        gap = _lp(np.concatenate(gaps[j]), float(np.prod(comparison.h)), SOBOLEV_P)
        table += [(f"pm_gap_lp[{j}]", gap), (f"fd_err[{j}]", max(err_plus, err_minus))]
        directions[j] = {"pm_gap_lp": gap, "nonunique_fraction": float(np.mean(flags[j])),
                         "err_plus": err_plus, "err_minus": err_minus}
    report = Report(f"gateaux_chain[{F.name}]", table, "MEASURED", {"directions": directions})
    return FieldResult(fields=fields[: u.domain.d], flags=flags, report=report)


# ---------------------------------------------------------------------------
# derivative of the pointwise norm
# ---------------------------------------------------------------------------


def norm_derivative_field(u: GridFunction) -> FieldResult:
    """Chain-rule field of the norm map along each axis.

    Values come from the extreme norming-functional pairing against the
    difference-quotient derivative of u; the report compares them with the
    direct difference quotients of the scalar pointwise-norm function in
    the discrete L^1 norm over non-flagged interior nodes.  Flagged nodes
    (non-unique pairing, or |u| at/near zero) store the midpoint of the
    one-sided interval; exact zeros store the conventional value 0.

    The fields and flags are full-size arrays; ``norm_derivative_report``
    gives the same report without them.  A non-finite node is rejected.
    """
    return _norm_derivative(u, None, keep_fields=True)


def norm_derivative_report(u, n: int | None = None) -> Report:
    """``norm_derivative_field(u).report``, bit for bit, from the same
    pass keeping no field, for a grid function u, or for the member that
    the blueprint u (``suite.SampleBlueprint``) realizes at n cells per
    axis.  A blueprint's member is never whole: the pass realizes one
    window of rows at a time (``SampleBlueprint.row_writer``), so its only
    full-size arrays are, per axis, the kept nodes' errors that ``_lp``
    sums."""
    return _norm_derivative(u, n, keep_fields=False).report


def _norm_derivative(u, n: int | None, keep_fields: bool) -> FieldResult:
    """The chain-rule pass of the norm, with the sides of ``banach._pairing_at``."""

    def at(X, norms):
        norms = norms[:, 0]
        near_zero = norms <= ZERO_TOL * (1.0 + norms)
        exact_zero = np.flatnonzero(norms == 0.0)
        pair = banach._pairing_at(u.space, X, norms)

        def sides(j, H, fields, flag):
            plus, minus, unique = pair(H)
            mid = fields[0][:, 0]  # plus where unique, else the midpoint; 0 at zeros
            if unique.all():
                np.copyto(mid, plus)
            else:
                np.add(plus, minus, out=mid)
                mid *= 0.5
                np.copyto(mid, plus, where=unique)
            mid[exact_zero] = 0.0
            np.logical_or(~unique, near_zero, out=flag)

        return sides

    who = "norm_derivative_field" if keep_fields else "norm_derivative_report"
    values = lambda X: banach.norm(u.space, X)[:, None]
    comparison, fields, flags = _chain_pass(u, n, who, keep_fields, scalar_space(), values, at)
    report = comparison.report("norm_derivative_field", cell_volume=float(np.prod(comparison.h)))
    return FieldResult(fields=fields, flags=flags, report=report)


# ---------------------------------------------------------------------------
# lattice chain rules: modulus and positive part
# ---------------------------------------------------------------------------


def _lattice_field(u: GridFunction, kind: str) -> FieldResult:
    """The chain-rule pass of |.| or (.)+: sign(x) h or 1_{x>0} h, flagged
    where a coordinate is within ZERO_TOL (1 + |x|) of zero."""
    name = f"{kind}_derivative_field"
    if not u.space.lattice_capable:
        raise CapabilityError(f"{u.space.kind} carries no lattice order for {name}")
    if not u.space.order_continuous:
        raise OrderContinuityError(f"{name} needs an order continuous norm; the sup norm "
                                   f"of {u.space.kind} is the standard failure")

    def at(X, FX):
        nx = banach.norm(u.space, X)
        near_zero = np.any(np.abs(X) <= (ZERO_TOL * (1.0 + nx))[:, None], axis=-1)
        gate = np.sign(X) if kind == "abs" else X > 0.0

        def sides(j, H, fields, flag):
            fields[0][...] = gate * H if kind == "abs" else np.where(gate, H, 0.0)
            np.copyto(flag, near_zero)

        return sides

    values = np.abs if kind == "abs" else lambda X: np.maximum(X, 0.0)
    comparison, fields, flags = _chain_pass(u, None, name, True, u.space, values, at)
    return FieldResult(fields, flags, comparison.report(name))


def abs_derivative_field(u: GridFunction) -> FieldResult:
    """Modulus chain rule D_j|u| = (sign u) D_j u, checked against the direct
    difference quotients of |u|; requires an order continuous lattice norm."""
    return _lattice_field(u, "abs")


def pos_derivative_field(u: GridFunction) -> FieldResult:
    """Positive-part chain rule D_j u+ = 1_{u>0} D_j u (band projection onto
    the support of u+), same hypotheses and comparison as the modulus rule."""
    return _lattice_field(u, "pos")


# ---------------------------------------------------------------------------
# disjoint supports are preserved by differentiation
# ---------------------------------------------------------------------------


def stampacchia_check(u: GridFunction, w) -> Report:
    """|u| ∧ w = 0 forces |D_j u| ∧ w = 0.

    The precondition is checked at every node within the zero tolerance;
    the derivative-side tolerance scales like tau/h since the quotients
    difference values that vanish on the support of w.
    """
    if not u.space.lattice_capable:
        raise CapabilityError(f"{u.space.kind} carries no lattice order")
    w = check_finite("w", real_array("w", w, (u.space.dim,)))
    if np.any(w < 0.0):
        raise ContractError("w must be a positive element")
    U = u.values
    nx = pointwise_norms(u)
    tau = ZERO_TOL * (1.0 + float(np.max(nx, initial=0.0)))
    pre = np.minimum(np.abs(U), w)
    pre_max = float(np.max(pre))
    if pre_max > tau:
        idx = np.unravel_index(int(np.argmax(pre.max(axis=-1).ravel())), u.grid.n)
        raise ContractError(
            f"|u| ∧ w is not zero: value {pre_max} at node {idx} exceeds {tau}"
        )
    du = finite_difference(u)
    hmin = float(np.min(u.grid.spacing(u.domain)))
    tol = 4.0 * tau / hmin
    worst = 0.0
    witness = None
    for j in range(u.domain.d):
        viol = np.minimum(np.abs(du[j].values), w)
        m = float(np.max(viol))
        if m > worst:
            worst = m
            witness = (j, np.unravel_index(int(np.argmax(viol.max(axis=-1).ravel())), u.grid.n))
    return Report(
        name="stampacchia_check",
        rows=[("precondition_max", pre_max), ("derivative_max", worst)],
        verdict="PASS" if worst <= tol else "FAIL",
        details={"tolerance": tol, "witness": witness},
    )


# ---------------------------------------------------------------------------
# quotient rule for the radial retraction, product rule
# ---------------------------------------------------------------------------


def quotient_rule_field(
    u: GridFunction, phi_hat: GridFunction
) -> tuple[GridFunction, FieldResult]:
    """Derivative field of v = (u/|u|) * (phi_hat ∧ |u|), zero on {u = 0}.

    D_j v = ((D_j u)|u| - u D_j|u|)/|u|^2 * phi + (u/|u|) D_j phi away from
    the zero set, with D_j|u| taken from norm_derivative_field; the report
    compares against the direct quotients of v off {|u| <= tau_zero} and
    the nodes that norm_derivative_field flags.  A non-finite node of u or
    phi_hat is rejected before any work.
    """
    if phi_hat.space.dim != 1:
        raise DimensionMismatchError("phi_hat must be a scalar grid function")
    check_finite("u", u.values)
    if np.any(check_finite("phi_hat", phi_hat.values) < 0.0):
        raise ContractError("phi_hat must be nonnegative")
    g = pointwise_norms(u)
    phi = np.minimum(phi_hat.values[..., 0], g)
    safe = g > ZERO_TOL * (1.0 + g)
    inv = np.where(safe, 1.0 / np.where(safe, g, 1.0), 0.0)
    v = u.like(u.values * (phi * inv)[..., None])

    du = finite_difference(u)
    nd = norm_derivative_field(u)
    dphi = finite_difference(from_scalar(u.domain, u.grid, phi))
    fields, flags = [], []
    for j in range(u.domain.d):
        dnorm = nd.fields[j].values[..., 0]
        numer = du[j].values * g[..., None] - u.values * dnorm[..., None]
        formula = numer * (inv**2 * phi)[..., None] + (
            u.values * inv[..., None]
        ) * dphi[j].values
        formula = np.where(safe[..., None], formula, 0.0)
        fields.append(u.like(formula))
        flags.append(~safe | nd.flags[j])
    report = _compare(v, fields, flags).report(
        "quotient_rule_field", zero_fraction=float(np.mean(~safe))
    )
    return v, FieldResult(fields, flags, report)


def product_rule_check(u: GridFunction, psi: GridFunction) -> Report:
    """D_j(psi u) = (D_j psi) u + psi D_j u, compared in the Bochner 1-norm
    at interior nodes (central differences make the defect O(h) for C^1
    scalar factors).  A non-finite node of u or psi is rejected before any
    work."""
    if psi.space.dim != 1:
        raise DimensionMismatchError("psi must be a scalar grid function")
    check_finite("u", u.values)
    check_finite("psi", psi.values)
    du = finite_difference(u)
    dpsi = finite_difference(psi)
    rhs = [u.like(dpsi[j].values * u.values + psi.values * du[j].values)
           for j in range(u.domain.d)]
    no_flags = [np.zeros(u.grid.n, dtype=bool)] * u.domain.d
    h = u.grid.spacing(u.domain)
    table, err_max = [], 0.0
    for j, err in enumerate(_compare(u.like(u.values * psi.values), rhs, no_flags).errors(1.0)):
        table.append((float(h[j]), err))
        err_max = max(err_max, err)
    return Report(
        name="product_rule_check",
        rows=table,
        verdict="MEASURED",
        details={"err_max": err_max, "err_max_over_h": err_max / float(np.min(h))},
    )


# ---------------------------------------------------------------------------
# Hölder seminorm over the grid
# ---------------------------------------------------------------------------


def holder_beta(
    u: GridFunction,
    alpha: float,
    max_nodes: int | None = None,
    seed: int = 0,
) -> float:
    """sup over node pairs of |u(xi)-u(eta)|_X / |xi-eta|^alpha.

    Exact over all pairs by default; pass ``max_nodes`` to evaluate on a
    seeded deterministic subsample.  Non-finite values are rejected with
    the first offending multi-index in the message.
    """
    check_real("alpha", alpha, "in (0, 1]", lambda a: 0.0 < a <= 1.0)
    seed = check_count("seed", seed, least=0)
    if max_nodes is not None:
        max_nodes = check_count("max_nodes", max_nodes, least=2)
    check_finite("holder_beta", u.values)
    P = grid_centers(u.domain, u.grid).reshape(-1, u.domain.d)
    V = u.values.reshape(-1, u.space.dim)
    if max_nodes is not None and P.shape[0] > max_nodes:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(P.shape[0], size=max_nodes, replace=False))
        P, V = P[idx], V[idx]
    return _kernels.holder_max(V, P, float(alpha), u.space.exponent, u.space.weights)
