"""Concrete sampled Banach spaces.

Four families of finite-dimensional value spaces, each carrying its norm,
its one-sided norm derivatives (computed from extreme norming functionals),
and, where the order structure allows it, lattice operations:

* ``FiniteLr``   - R^dim with the unweighted ell^r norm (r = inf -> sup norm)
* ``SampledSup`` - continuous functions sampled on dim points, sup norm
* ``GridLr``     - L^r on a sampled measure space, positive quadrature weights
* ``Hilbert``    - R^dim with the Euclidean inner product

``Hilbert`` norms are computed through the identical code path as
``FiniteLr`` with exponent 2, so the two agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CapabilityError, DimensionMismatchError

KINDS = ("FiniteLr", "SampledSup", "GridLr", "Hilbert")

#: relative tie tolerance for the sup-norm argmax set
TIE_REL = 1e-12
#: scale factor for the pairing uniqueness tolerance tau_pair = PAIR_TOL*(1+|h|)
PAIR_TOL = 1e-9
#: absolute scale for "this vector counts as zero" conventions downstream
ZERO_TOL = 1e-8


@dataclass(frozen=True)
class SpaceDescriptor:
    """Descriptor of one concrete value space.

    Parameters
    ----------
    kind : one of ``FiniteLr``, ``SampledSup``, ``GridLr``, ``Hilbert``
    dim : number of coordinates (sample points for SampledSup/GridLr)
    exponent : norm exponent; ``math.inf`` is allowed for FiniteLr/GridLr
        and makes them behave exactly like SampledSup. Hilbert forces 2.
    weights : per-coordinate positive quadrature weights, GridLr only;
        uniform ``1/dim`` when omitted.
    """

    kind: str
    dim: int
    exponent: float = 2.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CapabilityError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise DimensionMismatchError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "Hilbert":
            object.__setattr__(self, "exponent", 2.0)
        if self.kind == "SampledSup":
            object.__setattr__(self, "exponent", math.inf)
        e = self.exponent
        if not (e >= 1.0):
            raise CapabilityError(f"exponent must be >= 1 or inf, got {e}")
        if self.kind == "GridLr":
            w = self.weights
            if w is None:
                w = np.full(self.dim, 1.0 / self.dim)
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (self.dim,):
                raise DimensionMismatchError(
                    f"weights must have shape ({self.dim},), got {w.shape}"
                )
            if not np.all(w > 0.0):
                raise CapabilityError("GridLr weights must be positive")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise CapabilityError(f"{self.kind} does not take weights")

    # -- capabilities -------------------------------------------------------

    @property
    def lattice_capable(self) -> bool:
        """True when the coordinatewise order makes this a Banach lattice."""
        return self.kind in ("FiniteLr", "GridLr", "SampledSup")

    @property
    def order_continuous(self) -> bool:
        """True when the norm is order continuous (finite exponent;
        sup norms are the standard failure)."""
        if self.kind == "SampledSup":
            return False
        return math.isfinite(self.exponent)

    @property
    def sup_like(self) -> bool:
        return self.kind == "SampledSup" or math.isinf(self.exponent)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        e = self.exponent
        return {
            "kind": self.kind,
            "dim": self.dim,
            "exponent": "inf" if math.isinf(e) else e,
            "weights": None if self.weights is None else self.weights.tolist(),
        }


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


def check_vec(space: SpaceDescriptor, x) -> np.ndarray:
    """Conform x to the space: float array, last axis == dim, all finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (space.dim,):
        raise DimensionMismatchError(
            f"vector has trailing shape {x.shape[-1:]}, space dim is {space.dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite entries")
    return x


def _conform(space: SpaceDescriptor, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != space.dim:
        raise DimensionMismatchError(
            f"vector has {x.shape[-1]} coordinates, space dim is {space.dim}"
        )
    return x


def norm(space: SpaceDescriptor, x) -> np.ndarray | float:
    """Norm of x; broadcasts over leading axes of shape (..., dim)."""
    x = _conform(space, x)
    scalar = x.ndim == 1
    if space.sup_like:
        out = np.abs(x).max(axis=-1)
        return float(out) if scalar else out
    r = space.exponent
    w = space.weights
    ax = np.abs(x)
    if r == 1.0:
        out = ax @ w if w is not None else ax.sum(axis=-1)
    elif r == 2.0:
        sq = x * x
        out = np.sqrt(sq @ w if w is not None else sq.sum(axis=-1))
    else:
        p = ax**r
        out = (p @ w if w is not None else p.sum(axis=-1)) ** (1.0 / r)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# one-sided norm derivatives through norming functionals
# ---------------------------------------------------------------------------


def one_sided_norm_derivative_batch(space: SpaceDescriptor, X, H):
    """One-sided derivatives of the norm along rows of H at rows of X.

    Returns arrays ``(plus, minus, unique)`` of shape (N,).  The values are
    the extreme pairings <h, x'> over the norm-one functionals x' attaining
    the norm at x; at x = 0 they are (+|h|, -|h|).  ``unique`` is True when
    the two sides agree within tau_pair = 1e-9 * (1 + |h|).
    """
    return _pairing_batch(space, X, H)[:3]


def _pairing_batch(space: SpaceDescriptor, X, H):
    """``one_sided_norm_derivative_batch`` plus the direction norms |h| it
    computes on the way, as ``(plus, minus, unique, hnorm)``."""
    X = _conform(space, np.atleast_2d(X))
    H = _conform(space, np.atleast_2d(H))
    if X.shape != H.shape:
        raise DimensionMismatchError(
            f"point/direction batches disagree: {X.shape} vs {H.shape}"
        )
    hnorm = norm(space, H)
    hnorm = np.atleast_1d(hnorm)

    if space.sup_like:
        plus, minus = _kernels.sup_pairing(X, H, TIE_REL)
    else:
        r = space.exponent
        w = space.weights
        if w is None:
            w = np.ones(space.dim)
        if r == 1.0:
            sgn = np.sign(X)
            base = (sgn * H) @ w
            zero_part = (np.abs(H) * (X == 0.0)) @ w
            plus = base + zero_part
            minus = base - zero_part
        else:
            val, nx = _kernels.lr_pairing(X, H, r, w)
            zero = nx == 0.0
            plus = np.where(zero, hnorm, val)
            minus = np.where(zero, -hnorm, val)
    unique = (plus - minus) <= PAIR_TOL * (1.0 + hnorm)
    return plus, minus, unique, hnorm


def one_sided_norm_derivative(space: SpaceDescriptor, x, h) -> PairingResult:
    """One-sided directional derivatives of the norm at x along h.

    The right derivative is the supremum of <h, x'> over norming functionals
    x' of x, the left derivative is the infimum; plus >= minus always, and
    D_h^- = -D_{-h}^+.
    """
    x = check_vec(space, x)
    h = check_vec(space, h)
    if x.ndim != 1 or h.ndim != 1:
        raise DimensionMismatchError("x and h must be single vectors")
    plus, minus, unique = one_sided_norm_derivative_batch(space, x[None], h[None])
    return PairingResult(float(plus[0]), float(minus[0]), bool(unique[0]))


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def _require_lattice(space: SpaceDescriptor):
    if not space.lattice_capable:
        raise CapabilityError(
            f"{space.kind} carries no lattice order; modulus/positive part undefined"
        )


def lattice_abs(space: SpaceDescriptor, v) -> np.ndarray:
    """Coordinatewise modulus |v|."""
    _require_lattice(space)
    return np.abs(_conform(space, v))


def lattice_pos(space: SpaceDescriptor, v) -> np.ndarray:
    """Coordinatewise positive part v+ = v ∨ 0."""
    _require_lattice(space)
    return np.maximum(_conform(space, v), 0.0)


def sign_apply(space: SpaceDescriptor, v, w) -> np.ndarray:
    """(sign v)·w coordinatewise, with sign 0 on the zero set of v.

    This is the multiplication by the signum of v that shows up in the
    modulus chain rule; coordinates where v vanishes are annihilated.
    """
    _require_lattice(space)
    v = _conform(space, v)
    w = _conform(space, w)
    return np.sign(v) * w


def band_projection_disjoint(space: SpaceDescriptor, v, w) -> np.ndarray:
    """Projection of w onto the band where v vanishes (coordinatewise)."""
    _require_lattice(space)
    v = _conform(space, v)
    w = _conform(space, w)
    return np.where(v == 0.0, w, 0.0)


def pairing_vector(space: SpaceDescriptor, functional) -> np.ndarray:
    """Coefficient vector c so that <v, functional> = sum_s c_s v_s.

    GridLr pairings carry the quadrature weights; the other kinds pair by
    the plain dot product.
    """
    f = check_vec(space, functional)
    if space.kind == "GridLr":
        return space.weights * f
    return f
