"""Concrete sampled Banach spaces.

Four families of finite-dimensional value spaces, each carrying its norm,
its one-sided norm derivatives (computed from extreme norming functionals)
and flags for the order structure it has (lattice order, order continuous
norm):

* ``FiniteLr``   - R^dim with the unweighted ell^r norm (r = inf -> sup norm)
* ``SampledSup`` - continuous functions sampled on dim points, sup norm
* ``GridLr``     - L^r on a sampled measure space, positive quadrature weights
* ``Hilbert``    - R^dim with the Euclidean inner product

Each norm is (sum_s w_s |x_s|^r)^(1/r), or max_s |x_s| for r = inf, with
the descriptor's weights w (ones for all kinds but GridLr).
``Hilbert`` norms are computed through the identical code path as
``FiniteLr`` with exponent 2, so the two agree bit for bit.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CapabilityError, DimensionMismatchError, check_finite, check_type, real_array

KINDS = ("FiniteLr", "SampledSup", "GridLr", "Hilbert")

#: relative tie tolerance for the sup-norm argmax set
TIE_REL = 1e-12
#: scale factor for the pairing uniqueness tolerance tau_pair = PAIR_TOL*(1+|h|)
PAIR_TOL = 1e-9
#: absolute scale for "this vector counts as zero" conventions downstream
ZERO_TOL = 1e-8


@dataclass(frozen=True)
class SpaceDescriptor:
    """Descriptor of one concrete value space.  Its kind, dim, exponent and
    weights make up the space: descriptors compare and hash by all four.

    Parameters
    ----------
    kind : one of ``FiniteLr``, ``SampledSup``, ``GridLr``, ``Hilbert``
    dim : integer number of coordinates (sample points for SampledSup/GridLr)
    exponent : norm exponent, a real >= 1; ``math.inf`` is allowed for
        FiniteLr/GridLr and makes them behave exactly like SampledSup.
        Hilbert forces 2, SampledSup inf.
    weights : positive finite quadrature weights, GridLr only, uniform
        ``1/dim`` when omitted; the other kinds get ones.  Held as a
        read-only float64 array.
    """

    kind: str
    dim: int
    exponent: float = 2.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        kind, dim, e = self.kind, self.dim, self.exponent
        if not isinstance(kind, str) or kind not in KINDS:
            raise CapabilityError(f"unknown space kind {kind!r}")
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise DimensionMismatchError(f"dim must be an integer, got {dim!r}")
        if dim < 1:
            raise DimensionMismatchError(f"dim must be >= 1, got {dim}")
        if dim > (most := np.iinfo(np.intp).max // 8):  # no array of dim weights can exist
            raise DimensionMismatchError(f"dim must be at most {most}, got {dim}")
        if isinstance(e, bool) or not isinstance(e, numbers.Real) or not e >= 1.0:
            raise CapabilityError(f"exponent must be a number >= 1 or inf, got {e!r}")
        e = {"Hilbert": 2.0, "SampledSup": math.inf}.get(kind, float(e))
        if self.weights is None:
            w = np.full(dim, 1.0 / dim) if kind == "GridLr" else np.ones(dim)
        elif kind != "GridLr":
            raise CapabilityError(f"{kind} does not take weights")
        else:
            w = real_array("weights", self.weights, (dim,)).copy()  # made read-only below
            if not np.all((w > 0.0) & np.isfinite(w)):
                raise CapabilityError("GridLr weights must be positive and finite")
        w.flags.writeable = False
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "exponent", e)
        object.__setattr__(self, "weights", w)

    def _key(self):
        return self.kind, self.dim, self.exponent, self.weights.tobytes()

    def __eq__(self, other):
        return isinstance(other, SpaceDescriptor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- capabilities -------------------------------------------------------

    @property
    def lattice_capable(self) -> bool:
        """True when the coordinatewise order makes this a Banach lattice."""
        return self.kind != "Hilbert"

    @property
    def order_continuous(self) -> bool:
        """True when the norm is order continuous (finite exponent;
        sup norms are the standard failure)."""
        return math.isfinite(self.exponent)

    @property
    def sup_like(self) -> bool:
        return math.isinf(self.exponent)


def scalar_space() -> SpaceDescriptor:
    """The space scalar-valued grid functions live in.

    FiniteLr with dim 1 and exponent 1: its norm is |x| computed by a plain
    absolute-value sum (bit-exact on nonnegative input), and it is lattice
    capable with an order continuous norm, so scalar positive parts work.
    """
    return SpaceDescriptor(kind="FiniteLr", dim=1, exponent=1.0)


@dataclass(frozen=True)
class PairingResult:
    """Both one-sided directional derivatives of the norm at x in direction h,
    and whether they coincide (the norming functional is essentially unique)."""

    plus: float
    minus: float
    unique: bool


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm(space: SpaceDescriptor, x) -> np.ndarray | float:
    """Norm of x; broadcasts over leading axes of shape (..., dim).

    The rows' norms are ``_kernels.row_norms``; ``_kernels.row_sum`` says
    how their sums round.
    """
    x = real_array("x", x, (..., check_type("space", space, SpaceDescriptor).dim))
    out = _kernels.row_norms(x, space.exponent, space.weights)
    return float(out) if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# one-sided norm derivatives through norming functionals
# ---------------------------------------------------------------------------


def one_sided_norm_derivative_batch(space: SpaceDescriptor, X, H):
    """One-sided derivatives of the norm along rows of H at rows of X.

    Returns arrays ``(plus, minus, unique)`` of shape (N,).  The values are
    the extreme pairings <h, x'> over the norm-one functionals x' attaining
    the norm at x; at x = 0 they are (+|h|, -|h|).  ``unique`` is True when
    the sides agree within 1e-9 * (1 + |h|).  X and H must be finite.
    """
    X = check_finite("X", real_array("X", np.atleast_2d(X), (..., space.dim)))
    H = check_finite("H", real_array("H", np.atleast_2d(H), (..., space.dim)))
    if X.shape != H.shape:
        raise DimensionMismatchError(
            f"point/direction batches disagree: {X.shape} vs {H.shape}"
        )
    return _pairing_at(space, X, norm(space, X))(H)


def _pairing_at(space: SpaceDescriptor, X, nx):
    """``one_sided_norm_derivative_batch(space, X, .)`` for the fixed finite
    rows of the 2-D array X with norms ``nx`` (from ``norm``), as a function
    ``pair(H)``; what depends on X alone is computed once, here.  Away from
    x = 0 the sides are the largest and smallest pairing <h, x'> over the
    norming functionals x' of x, by one expression per kind:

    * sup norm: the functionals are sign(x_c) e_c over the ties c of x, the
      coordinates with |x_c| >= |x| (1 - ``TIE_REL``), so the sides are the
      extremes of sign(x_c) h_c over them (``_kernels.sup_pairing``).
    * ell^1: base +- the row sum of |h| over x's zero coordinates, with base
      the sign pairing; where x has no zero coordinate that sum is +0 for
      a finite h.
    * smooth Lr: one value, the gradient pairing (``_kernels.lr_gradient``).

    At x = 0 the sides are (+|h|, -|h|); they are unique when they agree within
    ``PAIR_TOL * (1 + |h|)``.  |h| is formed, over the whole batch, only when
    X has a zero row, a sup row with several ties or an ell^1 zero
    coordinate; otherwise the sides of a finite h are one value (ell^1's
    plus is that value + 0.0), so they are unique where they are finite.
    """
    zero = nx == 0.0
    if space.sup_like:
        tie = np.abs(X) >= (nx * (1.0 - TIE_REL))[:, None]
        needs_h = np.count_nonzero(tie) > len(X)  # every row ties at least once
        bound = np.where(tie, np.nan, -np.inf)

        def sides(H):
            return _kernels.sup_pairing(X, H, bound)

    elif space.exponent == 1.0:
        sgn, at_zero = np.sign(X), X == 0.0
        needs_h = bool(at_zero.any())

        def sides(H):
            base = _kernels.row_sum(sgn * H, space.weights)
            zero_part = _kernels.row_sum(np.abs(H) * at_zero, space.weights)
            return base + zero_part, base - zero_part

    else:
        grad = _kernels.lr_gradient(X, space.exponent, nx)
        needs_h = False

        def sides(H):
            val = _kernels.lr_pairing(X, H, space.exponent, space.weights, grad)
            return val, val.copy()

    if not (needs_h or zero.any()):

        def pair(H):
            plus, minus = sides(H)
            return plus, minus, np.isfinite(plus)

        return pair

    def pair(H):
        hnorm = np.atleast_1d(norm(space, H))
        plus, minus = sides(H)
        plus, minus = np.where(zero, hnorm, plus), np.where(zero, -hnorm, minus)
        return plus, minus, (plus - minus) <= PAIR_TOL * (1.0 + hnorm)

    return pair


def one_sided_norm_derivative(space: SpaceDescriptor, x, h) -> PairingResult:
    """One-sided directional derivatives of the norm at x along h.

    The right derivative is the supremum of <h, x'> over norming functionals
    x' of x, the left derivative is the infimum; plus >= minus always, and
    D_h^- = -D_{-h}^+.
    """
    dim = check_type("space", space, SpaceDescriptor).dim
    x = check_finite("x", real_array("x", x, (dim,)))
    h = check_finite("h", real_array("h", h, (dim,)))
    plus, minus, unique = one_sided_norm_derivative_batch(space, x[None], h[None])
    return PairingResult(float(plus[0]), float(minus[0]), bool(unique[0]))


def pairing_vector(space: SpaceDescriptor, functional) -> np.ndarray:
    """Coefficient vector c so that <v, functional> = sum_s c_s v_s: the
    space's weights times the functional (the plain functional, bit for
    bit, for the unweighted kinds, whose weights are ones).  The functional
    is one vector; an array of several raises ``DimensionMismatchError``."""
    c = check_finite("functional", real_array("functional", functional, (space.dim,)))
    return space.weights * c
