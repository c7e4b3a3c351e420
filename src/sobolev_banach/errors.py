"""Exception types shared across the package, the checks of a parameter,
a list or an array that raise them, and the checks of values and objects
against declarations that the config check and ``entry_params`` share.
Every array of the public API enters through ``real_array``: the spaces
are real, so a value that is not a real number is rejected by name."""

import math
import numbers
from collections.abc import Iterable

import numpy as np


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


def check_type(name: str, value, kind: type):
    """``value`` if it is a ``kind`` (a grid function, box, grid, space or
    rule), else ``ContractError`` naming ``name``."""
    if not isinstance(value, kind):
        raise ContractError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def check_list(name: str, value) -> tuple:
    """``value`` as a tuple when it is an iterable other than a string;
    anything else (None, a number, a string, which would be read one
    character at a time) raises ``ContractError`` naming ``name``."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ContractError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def real_array(name: str, x, shape: tuple | None = None) -> np.ndarray:
    """``x`` as float64 in its own memory order (``x`` itself if it is so).
    Input that is no array of integers or floats (complex, bool, string,
    object, ragged) raises ``ContractError`` naming ``name``; a shape other
    than ``shape`` (a leading ``...`` allows any leading axes) raises
    ``DimensionMismatchError``.  Finiteness is left to ``check_finite``."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise ContractError(f"{name} must be real numbers in a regular array") from None
    if a.dtype.kind not in "iuf":
        raise ContractError(f"{name} must be real numbers, got dtype {a.dtype}")
    if shape is not None:
        lead = shape[:1] == (...,)
        want = shape[lead:]
        if (a.shape[a.ndim - len(want):] if lead else a.shape) != want:
            expected = str(shape).replace("Ellipsis", "...")
            raise DimensionMismatchError(f"{name} has shape {a.shape}, expected {expected}")
    return a.astype(np.float64, copy=False)


def check_finite(name: str, values, first: int = 0) -> np.ndarray:
    """``values`` if finite, else ``ContractError`` "``name``: non-finite
    value at node (...)" for the first such node (index over all axes but
    the last; a single vector is node ()), its first index counted from
    ``first``; the node is sought only once a flat test fails."""
    if not np.isfinite(values).all():
        node = np.argwhere(~np.isfinite(values).all(axis=-1))[0]
        node[:1] += first
        raise ContractError(f"{name}: non-finite value at node {tuple(map(int, node))}")
    return values


def value_errors(value, decl, at: str) -> list[str]:
    """Each way ``value`` breaks ``decl``, as ``"<at>: <message>"``.  A default asks
    for its type: a ladder (list or tuple), an integer (int; 256.0 will do) or a number."""
    if decl is str:
        return [] if isinstance(value, str) else [f"{at}: {value!r} is not of type 'string'"]
    default, low, high = decl
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            return [f"{at}: {value!r} is not of type 'array'"]
        errors = [e for i, n in enumerate(value)
                  for e in value_errors(n, (0, low, high), f"{at}/{i}")]
        if len(value) < 2:
            return errors + [f"{at}: {value!r} is too short"]
        if errors or len(set(value)) < len(value):
            return errors or [f"{at}: {value!r} has non-unique elements"]
        levels = sorted(value)  # an order fitted to closer levels is noise
        return [f"{at}: level {b} is less than twice the level {a} below it"
                for a, b in zip(levels, levels[1:]) if b < 2 * a]
    kind = "number" if isinstance(default, float) else "integer"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return [f"{at}: {value!r} is not of type {kind!r}"]
    if not math.isfinite(value):  # a literal such as 1e400 overflows
        return [f"{at}: {value!r} is not a finite number"]
    if kind == "integer" and value % 1:
        return [f"{at}: {value!r} is not of type {kind!r}"]
    if low is not None and value < low:
        return [f"{at}: {value!r} is less than the minimum of {low}"]
    if high is not None and value > high:
        return [f"{at}: {value!r} is greater than the maximum of {high}"]
    return []


def json_pointer(at: str, key: str) -> str:
    """The JSON pointer of ``key`` in the object at ``at``, escaped as RFC 6901
    asks: ``~`` as ``~0``, then ``/`` as ``~1``."""
    return f"{at}/{key.replace('~', '~0').replace('/', '~1')}"


def field_errors(obj, at: str, decls, required=(), nonempty=False) -> list[str]:
    """Each way ``obj`` at the JSON pointer ``at`` breaks being an object (with a
    key, if ``nonempty``) with the ``required`` keys and ``decls`` (a declaration
    per key, None for any value; ``decls`` None: any key), as ``"<at>: <message>"``."""
    here = at or "/"  # the pointer of the whole config
    if not isinstance(obj, dict) or (nonempty and not obj):
        return [f"{here}: {obj!r} is not an object{' with a key' * nonempty}"]
    errors = [f"{here}: {k!r} is a required property" for k in required if k not in obj]
    for key, value in obj.items():
        if decls is not None and key not in decls:
            errors.append(f"{here}: {key!r} was unexpected")
        elif decls and decls[key]:
            errors.extend(value_errors(value, decls[key], json_pointer(at, key)))
    return errors
