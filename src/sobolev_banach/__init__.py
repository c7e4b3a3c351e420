"""Difference-quotient Sobolev calculus for Banach-space-valued grid functions."""

from ._kernels import backend as kernel_backend
from .banach import (
    PairingResult,
    SpaceDescriptor,
    norm,
    one_sided_norm_derivative,
    scalar_space,
)
from .gridfn import (
    BoxDomain,
    GridFunction,
    GridSpec,
    apply_functional,
    bochner_norm,
    boundary_norm,
    extend_reflect,
    finite_difference,
    from_scalar,
    mollify,
    sample,
    shift_difference_norm,
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
    "bochner_norm",
    "boundary_norm",
    "extend_reflect",
    "finite_difference",
    "from_scalar",
    "kernel_backend",
    "mollify",
    "norm",
    "one_sided_norm_derivative",
    "sample",
    "scalar_space",
    "shift_difference_norm",
    "unit_box",
    "w_norm",
]
