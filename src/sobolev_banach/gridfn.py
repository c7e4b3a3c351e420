"""Grid functions: vector-valued samples on uniform cell-centered box grids.

Values live on the midpoints of a uniform subdivision of an open box, stored
as an array of shape ``grid.n + (space.dim,)`` (row-major over the node
multi-index).  Midpoint quadrature, central finite differences with a
second-order one-sided boundary ring, shift-difference norms, mollification,
even reflection extension, boundary norms of the trace and functional
pairings all operate on this representation.  W-norms and boundary norms
are taken at the one exponent ``SOBOLEV_P`` = 2 of every theorem check.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels, banach
from .banach import SpaceDescriptor, scalar_space
from .errors import ContractError, DimensionMismatchError, GridError, check_count, check_exponent
from .errors import check_finite, check_type, real_array

#: the exponent p of W^{1,p}: every W-norm, boundary norm and theorem check
SOBOLEV_P = 2.0


@dataclass(frozen=True)
class BoxDomain:
    """Open axis-aligned box (lo_1, hi_1) x ... x (lo_d, hi_d).  Boxes
    compare and hash by their corners, held as read-only float64 arrays."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(real_array("lo", self.lo), ndmin=1)
        hi = np.array(real_array("hi", self.hi), ndmin=1)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DimensionMismatchError("lo and hi must be 1-d of equal length >= 1")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise GridError(f"lo and hi must be finite, got lo={lo} hi={hi}")
        if not np.all(hi > lo):
            raise GridError("box needs hi > lo on every axis")
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def _key(self):
        return tuple(self.lo.tolist()), tuple(self.hi.tolist())

    def __eq__(self, other):
        return isinstance(other, BoxDomain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def d(self) -> int:
        return self.lo.shape[0]


def unit_box(d: int) -> BoxDomain:
    d = check_count("d", d)
    return BoxDomain(np.zeros(d), np.ones(d))


@dataclass(frozen=True)
class GridSpec:
    """Per-axis subdivision counts of a uniform cell-centered grid."""

    n: tuple[int, ...]

    def __post_init__(self):
        n = tuple(self.n) if np.ndim(self.n) else (self.n,)
        for k in n:
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise GridError(f"cell counts must be integers, got {k!r}")
        n = tuple(int(k) for k in n)
        if not n:
            raise GridError("need at least one axis")
        if any(k < 2 for k in n):
            raise GridError(f"need at least 2 cells per axis, got {n}")
        object.__setattr__(self, "n", n)

    def spacing(self, domain: BoxDomain) -> np.ndarray:
        if len(self.n) != domain.d:
            raise DimensionMismatchError("grid/domain dimension mismatch")
        return (domain.hi - domain.lo) / np.asarray(self.n, dtype=np.float64)

    def axes(self, domain: BoxDomain) -> list[np.ndarray]:
        h = self.spacing(domain)
        return [
            domain.lo[j] + (np.arange(self.n[j]) + 0.5) * h[j]
            for j in range(domain.d)
        ]


def grid_centers(domain: BoxDomain, grid: GridSpec) -> np.ndarray:
    """Cell-center coordinates, shape grid.n + (d,)."""
    axes = grid.axes(domain)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


@dataclass
class GridFunction:
    """A sampled map from the box into a concrete Banach space."""

    domain: BoxDomain
    grid: GridSpec
    space: SpaceDescriptor
    values: np.ndarray

    def __post_init__(self):
        check_type("domain", self.domain, BoxDomain)
        if len(check_type("grid", self.grid, GridSpec).n) != self.domain.d:
            raise DimensionMismatchError("grid/domain dimension mismatch")
        dim = check_type("space", self.space, SpaceDescriptor).dim
        self.values = real_array("values", self.values, self.grid.n + (dim,))

    @property
    def node_count(self) -> int:
        return int(np.prod(self.grid.n))

    def like(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.domain, self.grid, self.space, values)


def from_scalar(domain: BoxDomain, grid: GridSpec, values: np.ndarray) -> GridFunction:
    """Wrap a scalar node array (shape grid.n) as a dim-1 grid function."""
    values = real_array("values", values, check_type("grid", grid, GridSpec).n)
    return GridFunction(domain, grid, scalar_space(), values[..., None])


def pointwise_norms(u: GridFunction) -> np.ndarray:
    """Scalar node array of the value-space norms, shape grid.n."""
    return np.asarray(banach.norm(u.space, u.values))


def pointwise_norm_function(u: GridFunction) -> GridFunction:
    return from_scalar(u.domain, u.grid, pointwise_norms(u))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample(domain: BoxDomain, grid: GridSpec, space: SpaceDescriptor, f) -> GridFunction:
    """Evaluate a rule at the cell centers.

    ``f`` maps a coordinate vector of length d to a value vector of length
    space.dim.  A value that is not real numbers or not finite raises
    ``ContractError``, and one of another shape ``DimensionMismatchError``,
    with the offending multi-index in the message.
    """
    check_type("domain", domain, BoxDomain)
    check_type("grid", grid, GridSpec)
    check_type("space", space, SpaceDescriptor)
    check_type("f", f, Callable)
    centers = grid_centers(domain, grid)
    vals = np.empty(grid.n + (space.dim,))
    for node in np.ndindex(grid.n):
        vals[node] = real_array(f"sample: value at node {node}", f(centers[node]), (space.dim,))
    check_finite("sample", vals)
    return GridFunction(domain, grid, space, vals)


# ---------------------------------------------------------------------------
# quadrature norms
# ---------------------------------------------------------------------------


def _lp(g: np.ndarray, vol: float, p: float, out=None) -> float:
    """Midpoint-quadrature L^p norm of the values g, each weighing vol; the
    powers go to ``out`` (g's shape; it may be g itself) when it is given."""
    if g.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(np.abs(g)))
    a = _kernels.abs_power(g, p, out=out)  # out, or one temporary, raised in place
    return float((np.sum(a) * vol) ** (1.0 / p))


def bochner_norm(u: GridFunction, p: float) -> float:
    """Midpoint-quadrature L^p norm of the pointwise value-space norms.

    By construction this is bit-identical to the scalar Bochner norm of
    ``pointwise_norm_function(u)``.
    """
    check_type("u", u, GridFunction)
    check_exponent("p", p)
    g = pointwise_norms(u)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    return _lp(g, vol, p, out=g)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _axis_slices(d: int, j: int, s: slice) -> tuple:
    out = [slice(None)] * d
    out[j] = s
    return tuple(out)


def interior_mask(grid: GridSpec, rows: slice = slice(None)) -> np.ndarray:
    """Boolean node mask of the first-axis rows ``rows`` (all by default),
    False on the one-node boundary ring where :func:`finite_difference`
    uses its one-sided stencils."""
    n = grid.n
    a, b, _ = rows.indices(n[0])
    mask = np.zeros((b - a,) + n[1:], dtype=bool)
    mask[(slice(max(a, 1) - a, min(b, n[0] - 1) - a),) + (slice(1, -1),) * (len(n) - 1)] = True
    return mask


def _difference_rows(
    v: np.ndarray, first: int, total: int, h: np.ndarray, j: int, rows: slice, out: np.ndarray
):
    """Write D_j of a node array (grid axes, then the value axis) of
    ``total`` first-axis rows on its rows ``rows`` into ``out``, of shape
    ``v[rows]``, reading the window ``v`` that holds its rows ``first``,
    ``first + 1``, ...  A whole array is the window at ``first`` = 0.

    Second-order central stencil in the interior, second-order one-sided at
    the two boundary layers of axis j.  Every node's expression is the one
    it gets over all rows, so a pass that runs one block of rows at a time,
    reading the block and a halo row on each side (three rows at a grid
    edge of axis 0), gets the whole-array differences bit for bit.

    When the step 2h is a power of two (every unit-box grid of
    power-of-two n) with a finite reciprocal, the differences are
    multiplied by 1/step instead of divided by step: 1/step is then exact,
    so both round the same real quotient, and give the same bits, at about
    half the cost.
    """
    n = total if j == 0 else v.shape[j]
    if n < 3:
        raise GridError(f"axis {j} has {n} cells; stencils need >= 3")
    a, b, _ = rows.indices(total)
    if j > 0:  # the stencil stays inside each first-axis row
        v, a, b, first = v[a - first : b - first], 0, n, 0
    S = lambda p, q: _axis_slices(v.ndim - 1, j, slice(p - first, q - first))
    T = lambda p, q: _axis_slices(v.ndim - 1, j, slice(p - a, q - a))
    step = float(2.0 * h[j])
    if math.frexp(step)[0] == 0.5 and math.isfinite(inv := 1.0 / step):
        quotient = lambda x: np.multiply(x, inv, out=x)
    else:
        quotient = lambda x: np.divide(x, step, out=x)
    lo, hi = max(a, 1), min(b, n - 1)
    if j > 0 and v.flags.c_contiguous and out.flags.c_contiguous:
        # the central stencil over the flat arrays, in which the neighbours
        # along axis j lie ``gap`` floats apart: each interior node gets its
        # own expression, about twice as fast as over the strided slices,
        # and the one-sided stencils below overwrite the nodes on the
        # boundary layers of axis j, which get a difference of other nodes
        gap = out.strides[j] // out.itemsize
        inner, flat = out.reshape(-1)[gap:-gap], v.reshape(-1)
        np.subtract(flat[2 * gap :], flat[: -2 * gap], out=inner)
        quotient(inner)
    elif lo < hi:
        # written straight into out and divided in place: the same
        # operations as (a - b) / step, without temporaries
        inner = out[T(lo, hi)]
        np.subtract(v[S(lo + 1, hi + 1)], v[S(lo - 1, hi - 1)], out=inner)
        quotient(inner)
    if a == 0:
        out[T(0, 1)] = -3.0 * v[S(0, 1)] + 4.0 * v[S(1, 2)] - v[S(2, 3)]
        quotient(out[T(0, 1)])
    if b == n:
        out[T(b - 1, b)] = 3.0 * v[S(n - 1, n)] - 4.0 * v[S(n - 2, n - 1)] + v[S(n - 3, n - 2)]
        quotient(out[T(b - 1, b)])


def finite_difference(u: GridFunction) -> list[GridFunction]:
    """Difference-quotient derivative fields D_j u, one per axis:
    ``_difference_rows`` over all rows.

    Second-order central stencil in the interior, second-order one-sided at
    the two boundary layers (checks that need interior accuracy mask that
    ring via :func:`interior_mask`).
    """
    h = check_type("u", u, GridFunction).grid.spacing(u.domain)
    fields = []
    for j in range(u.domain.d):
        dv = np.empty_like(u.values)
        _difference_rows(u.values, 0, u.grid.n[0], h, j, slice(None), dv)
        fields.append(u.like(dv))
    return fields


def w_norm(u: GridFunction) -> float:
    """Discrete W^{1,p} norm at p = SOBOLEV_P: Bochner p-norm of u plus the
    sum over axes of the Bochner p-norms of the difference-quotient fields."""
    total = bochner_norm(u, SOBOLEV_P)
    for dj in finite_difference(u):
        total += bochner_norm(dj, SOBOLEV_P)
    return total


def gf_sub(u: GridFunction, v: GridFunction) -> GridFunction:
    if u.domain != v.domain or u.grid.n != v.grid.n or u.space != v.space:
        raise DimensionMismatchError("grid functions do not conform")
    return u.like(u.values - v.values)


# ---------------------------------------------------------------------------
# shift-difference norms (the difference-quotient criterion's raw material)
# ---------------------------------------------------------------------------


def shift_node_norms(u: GridFunction, j: int, steps: int) -> np.ndarray:
    """Pointwise value-space norms of u(.+ steps*h_j e_j) - u, on the nodes
    of the shrunken box whose shifted partner stays on the grid.

    The differences and their norms are computed one node block
    (``_kernels.node_blocks`` over the first grid axis) at a time, in one
    reused buffer, so each norm is the whole-array one bit for bit.  A
    caller that needs several reductions of one shift difference (an L^p
    norm, a max) takes them all from this one array.
    """
    d = check_type("u", u, GridFunction).domain.d
    if check_count("j", j, least=0) >= d:
        raise ContractError(f"j must be an axis below d={d}, got {j}")
    steps = check_count("steps", steps)
    nj = u.grid.n[j]
    if steps >= nj:
        raise GridError(f"shift of {steps} cells exceeds axis {j} ({nj} cells)")
    ahead = u.values[_axis_slices(d, j, slice(steps, None))]
    behind = u.values[_axis_slices(d, j, slice(0, -steps))]
    blocks = _kernels.node_blocks(len(ahead), ahead[0].size)
    diff = np.empty_like(ahead[blocks[0]])
    g = np.empty(ahead.shape[:-1])
    for blk in blocks:
        part = diff[: blk.stop - blk.start]
        np.subtract(ahead[blk], behind[blk], out=part)
        g[blk] = banach.norm(u.space, part)
    return g


def shift_difference_norm(u: GridFunction, j: int, steps: int, p: float) -> float:
    """L^p norm over the shrunken box of u(.+ steps*h_j e_j) - u: ``_lp``
    of ``shift_node_norms``, with the cell volume of the full box as the
    quadrature weight."""
    check_exponent("p", p)
    g = shift_node_norms(u, j, steps)
    vol = float(np.prod(u.grid.spacing(u.domain)))
    return _lp(g, vol, p, out=g)


# ---------------------------------------------------------------------------
# even reflection extension
# ---------------------------------------------------------------------------


def extend_reflect(u: GridFunction, pad: int) -> GridFunction:
    """Extend by even reflection across every face, pad cells per side.

    The restriction of the result to the original index range equals u
    exactly; the cell-centered layout makes np.pad's symmetric mode the
    exact mirror image across each face plane.
    """
    pad = check_count("pad", pad)
    if pad > min(check_type("u", u, GridFunction).grid.n):
        raise GridError(
            f"pad {pad} exceeds the grid ({min(u.grid.n)} cells on the shortest axis)"
        )
    d = u.domain.d
    h = u.grid.spacing(u.domain)
    ext = np.pad(u.values, [(pad, pad)] * d + [(0, 0)], mode="symmetric")
    dom = BoxDomain(u.domain.lo - pad * h, u.domain.hi + pad * h)
    grid = GridSpec(tuple(k + 2 * pad for k in u.grid.n))
    return GridFunction(dom, grid, u.space, ext)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _bump(rho_arg_sq: np.ndarray) -> np.ndarray:
    """exp(1/(s^2-1)) on s^2 < 1, with s^2 passed in; 0 outside."""
    out = np.zeros_like(rho_arg_sq)
    inside = rho_arg_sq < 1.0
    out[inside] = np.exp(1.0 / (rho_arg_sq[inside] - 1.0))
    return out


def mollifier_weights(h: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (m, d) and normalized weights (m,) of the discrete mollifier.

    The kernel is the standard normalized bump scaled to support radius
    1/level, evaluated at integer cell offsets and renormalized to unit sum.
    ``level`` must be an integer >= 1.
    """
    radius = 1.0 / check_count("level", level)
    K = np.floor(radius / h * (1.0 - 1e-12)).astype(int)
    if np.all(K < 1):
        raise GridError(
            f"mollifier support radius {radius} is below one cell; "
            "refine the grid or lower the level"
        )
    ranges = [np.arange(-k, k + 1) for k in K]
    offsets = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    xi = offsets * h
    arg_sq = ((xi * level) ** 2).sum(axis=1)
    w = _bump(arg_sq)
    keep = w > 0.0
    offsets, w = offsets[keep], w[keep]
    w = w / w.sum()
    return offsets, w


def mollify(u: GridFunction, level: int) -> GridFunction:
    """Convolve with the discrete bump mollifier of support radius 1/level.

    The input is extended internally by even reflection so the output lives
    on the same grid.  Computed as u + sum_k w_k (shift_k u - u), which
    preserves constants bit-exactly and never pushes values outside the
    convex hull of the reflected samples.

    The sum runs one node block (``_kernels.node_blocks`` over the first
    grid axis) at a time, with all offsets inside each block, so a block
    stays in cache while its terms accumulate.  Every node still adds its
    terms in offset order, so each sum is the whole-array one.
    """
    h = check_type("u", u, GridFunction).grid.spacing(u.domain)
    offsets, w = mollifier_weights(h, level)
    pad = int(np.abs(offsets).max())
    ext = extend_reflect(u, pad).values
    n = u.grid.n
    # per offset: its weight, its first-axis shift and its slices of the other axes
    terms = [
        (wk, pad + k[0], tuple(slice(pad + k[j], pad + k[j] + n[j]) for j in range(1, len(n))))
        for k, wk in zip(offsets, w)
        if np.any(k)
    ]
    out = u.values.copy()
    blocks = _kernels.node_blocks(n[0], out[0].size)
    term = np.empty_like(out[blocks[0]])
    for blk in blocks:
        center, acc = u.values[blk], out[blk]
        part = term[: blk.stop - blk.start]
        for wk, k0, rest in terms:
            np.subtract(ext[(slice(k0 + blk.start, k0 + blk.stop),) + rest], center, out=part)
            part *= wk
            acc += part
    return u.like(out)


# ---------------------------------------------------------------------------
# boundary norms
# ---------------------------------------------------------------------------


def boundary_norm(u: GridFunction) -> float:
    """L^2 norm over the boundary of the pointwise value-space norms of the
    trace of u, by (d-1)-dimensional midpoint quadrature.

    The trace on each face is the linear extrapolation of u from the two
    nearest node layers; the faces are taken lo then hi along each axis.
    """
    d = check_type("u", u, GridFunction).domain.d
    h = u.grid.spacing(u.domain)
    total = 0.0
    for j in range(d):
        area = float(np.prod(np.delete(h, j))) if d > 1 else 1.0
        layer = lambda a, b: u.values[_axis_slices(d, j, slice(a, b))]
        for near, far in ((layer(0, 1), layer(1, 2)), (layer(-1, None), layer(-2, -1))):
            trace = (1.5 * near - 0.5 * far).squeeze(axis=j)
            g = np.asarray(banach.norm(u.space, trace))
            total += float(np.sum(g**SOBOLEV_P) * area)
    return total ** (1.0 / SOBOLEV_P)


# ---------------------------------------------------------------------------
# functional pairings
# ---------------------------------------------------------------------------


def apply_functional(u: GridFunction, functional) -> GridFunction:
    """Scalar grid function xi -> <u(xi), functional>."""
    c = banach.pairing_vector(check_type("u", u, GridFunction).space, functional)
    scal = u.values @ c
    return from_scalar(u.domain, u.grid, scal)
