"""Shared report plumbing: log-log fits, the one report type, and the
conversion of results to JSON-ready values."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _one_value(xs) -> bool:
    """Whether the nonempty 1-D array ``xs`` holds fewer than two distinct
    values, all NaNs counting as one: ``np.unique(xs).size < 2``, without
    the import of numpy.ma that ``np.unique`` makes."""
    return bool(np.all(xs == xs[0]) or np.all(np.isnan(xs)))


def fit_loglog(xs, ys) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(y) against log(x).

    Callers filter out nonpositive entries; degenerate inputs (fewer than
    two distinct x) return (nan, 0.0).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2 or _one_value(xs) or np.any(xs <= 0) or np.any(ys <= 0):
        return float("nan"), 0.0
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


@dataclass
class Report:
    """A measured table and its verdict: the one result shape of every check.

    The layout of each row belongs to the producer (its docstring says what
    a row holds); everything else it measured goes in ``details``.  A
    producer that only measures, leaving the comparison to its caller,
    gives the verdict MEASURED, which never passes.
    """

    name: str
    rows: list
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in (
            "PASS", "BOUNDED", "STABLE", "CONFIRMS_FAILURE", "MEMBER"
        )


def to_jsonable(obj):
    """Recursively convert containers/ndarrays/numpy scalars for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj
