"""Difference-quotient Sobolev calculus for Banach-space-valued grid functions."""

from ._kernels import backend as kernel_backend
from .banach import (
    PairingResult,
    SpaceDescriptor,
    band_projection_disjoint,
    lattice_abs,
    lattice_pos,
    norm,
    one_sided_norm_derivative,
    scalar_space,
    sign_apply,
)
from .gridfn import (
    BoxDomain,
    GridFunction,
    GridSpec,
    apply_functional,
    bochner_norm,
    boundary_lp_norm,
    extend_reflect,
    finite_difference,
    from_scalar,
    mollify,
    sample,
    shift_difference_norm,
    trace_boundary,
    unit_box,
    w_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "GridFunction",
    "GridSpec",
    "PairingResult",
    "SpaceDescriptor",
    "apply_functional",
    "band_projection_disjoint",
    "bochner_norm",
    "boundary_lp_norm",
    "extend_reflect",
    "finite_difference",
    "from_scalar",
    "kernel_backend",
    "lattice_abs",
    "lattice_pos",
    "mollify",
    "norm",
    "one_sided_norm_derivative",
    "sample",
    "scalar_space",
    "shift_difference_norm",
    "sign_apply",
    "trace_boundary",
    "unit_box",
    "w_norm",
]
