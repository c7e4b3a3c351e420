"""Exception types shared across the package, and the checks of an
integer or real parameter, or of a list of them, that raise them."""

import numbers
from collections.abc import Iterable


class ContractError(ValueError):
    """An argument violates an operation's stated precondition."""


class DimensionMismatchError(ContractError):
    """Vector or field dimensions do not conform to the space/grid."""


class CapabilityError(ContractError):
    """The space lacks a capability required by the operation."""


class OrderContinuityError(CapabilityError):
    """Lattice differentiation requested in a space whose norm is not
    order continuous (sup-norm spaces); this is exactly how the
    positive-part counterexample manifests at the API level."""


class GridError(ContractError):
    """Grid is too coarse or otherwise unusable for the requested stencil."""


class ConfigError(ValueError):
    """Suite configuration file is malformed."""


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int when it is an integer >= ``least``; a float
    (even an integral one) or a bool raises ``ContractError`` naming
    ``name``, as ``GridSpec`` and ``SpaceDescriptor`` treat their counts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ContractError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(name: str, value, must: str, ok) -> None:
    """Raise ``ContractError`` "``name`` must be ``must``" unless ``value``
    is a real number, not a bool, that ``ok`` accepts, as ``SpaceDescriptor``
    treats its exponent; a string or None is no number, and NaN fails
    every comparison."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ContractError(f"{name} must be {must}, got {value!r}")


def check_exponent(name: str, value) -> None:
    """``check_real`` for an L^p exponent: a number >= 1, inf included."""
    check_real(name, value, ">= 1 or inf", lambda v: v >= 1.0)


def check_list(name: str, value) -> tuple:
    """``value`` as a tuple when it is an iterable other than a string;
    anything else (None, a number, a string, which would be read one
    character at a time) raises ``ContractError`` naming ``name``."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ContractError(f"{name} must be a list, got {value!r}")
    return tuple(value)
