"""The ``library-large`` workload: direct public calls on seeded large grids.

One pass realizes every blueprint of a seeded corpus (one 1-D member at
n = 65536 and one 2-D member at n = 512 per space kind), then runs the norm
derivative field and the difference-quotient criterion on each, the Hölder
seminorm on a 3072-node subsample of each 1-D member, the mollifier on every
member, and one covering-number count over 200 members of 1024 nodes.

Each call's result is checked against a computation written here, with its
own code, outside the timed region (``check_call``).  Later passes must
reproduce the first pass exactly (``digest``).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import fields, is_dataclass

import numpy as np

from sobolev_banach import banach, calculus, gridfn, suite, theorems

N_1D = 65536
N_2D = 512
HOLDER_NODES = 3072
HOLDER_ALPHA = 0.5
MOLLIFY_CELLS = 2  # cells on each side of a node that the mollifier reaches
COVER_MEMBERS = 200
COVER_NODES = 1024
COVER_EPS = (0.25, 0.5, 1.0, 2.0)
DQ_P = 2.0


class Inputs:
    """Everything a pass needs, generated from the workload seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.blueprints = suite.corpus_blueprints(rng, per_kind_1d=1, per_kind_2d=1)
        self.holder_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=len(self.blueprints))]
        self.cover_members = _cover_members(rng)


def _cover_members(rng):
    dom = gridfn.unit_box(1)
    grid = gridfn.GridSpec((COVER_NODES,))
    space = banach.SpaceDescriptor("GridLr", 4, exponent=2.0)
    x = (np.arange(COVER_NODES) + 0.5) / COVER_NODES
    basis = np.stack([np.ones_like(x), np.sin(np.pi * x), np.sin(2 * np.pi * x)])
    coef = rng.normal(size=(COVER_MEMBERS, space.dim, 3))
    return [
        gridfn.GridFunction(dom, grid, space, (coef[i] @ basis).T)
        for i in range(COVER_MEMBERS)
    ]


def _n(bp) -> int:
    return N_1D if bp.d == 1 else N_2D


def calls(inputs: Inputs):
    """The pass, as (label, thunk, check arguments) triples in call order.

    Thunks for calls on realized members read the member from ``realized``,
    which the realize thunks fill, so a pass realizes every member anew.
    """
    realized: dict[int, object] = {}
    out = []
    for i, bp in enumerate(inputs.blueprints):
        def realize(i=i, bp=bp):
            realized[i] = bp.realize(_n(bp))
            return realized[i]

        out.append((f"realize[{i}]", realize, ("realize", bp)))
    for i in range(len(inputs.blueprints)):
        out.append((f"norm_derivative_field[{i}]",
                    lambda i=i: calculus.norm_derivative_field(realized[i]),
                    ("norm_derivative_field", realized, i)))
        out.append((f"dq_criterion[{i}]",
                    lambda i=i: calculus.dq_criterion(realized[i], DQ_P),
                    ("dq_criterion", realized, i)))
    for i, bp in enumerate(inputs.blueprints):
        if bp.d == 1:
            seed = inputs.holder_seeds[i]
            out.append((f"holder_beta[{i}]",
                        lambda i=i, seed=seed: calculus.holder_beta(
                            realized[i], HOLDER_ALPHA, max_nodes=HOLDER_NODES, seed=seed),
                        ("holder_beta", realized, i, seed)))
    for i, bp in enumerate(inputs.blueprints):
        level = _n(bp) // (MOLLIFY_CELLS + 1)  # support radius: MOLLIFY_CELLS + 1 cells
        out.append((f"mollify[{i}]",
                    lambda i=i, level=level: gridfn.mollify(realized[i], level),
                    ("mollify", realized, i, level)))
    out.append(("covering_counts",
                lambda: theorems.covering_counts(inputs.cover_members, 2.0, COVER_EPS),
                ("covering_counts", inputs.cover_members)))
    return out


# -- result digests ------------------------------------------------------------------


def digest(obj) -> str:
    """Hash of every number in a result, so passes can be compared exactly."""
    h = hashlib.sha1()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            if f.name not in ("domain", "grid", "space", "source"):
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


# -- reference computations --------------------------------------------------------------


def _norm(space, x):
    """Value-space norm over the last axis, from the definition."""
    ax = np.abs(x)
    if space.kind == "SampledSup" or math.isinf(space.exponent):
        return ax.max(axis=-1)
    w = np.ones(space.dim) if space.weights is None else space.weights
    r = space.exponent
    return (ax**r * w).sum(axis=-1) ** (1.0 / r)


def _centers(n, d):
    axis = (np.arange(n) + 0.5) / n
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)


def _close(a, b, rtol=1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def _ref_realize(bp):
    x = _centers(_n(bp), bp.d)
    dim, K = bp.amp_sin.shape[:2]
    vals = np.zeros(x.shape[:-1] + (dim,)) + bp.const
    for k in range(K):
        for j in range(bp.d):
            arg = (k + 1) * math.pi * x[..., j : j + 1]
            vals += np.sin(arg) * bp.amp_sin[:, k, j] + np.cos(arg) * bp.amp_cos[:, k, j]
    return vals


def _central_difference(v, j, h):
    """Second-order difference along axis j with one-sided boundary stencils."""
    v = np.moveaxis(v, j, 0)
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    dv[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    dv[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return np.moveaxis(dv, 0, j)


def _check_norm_derivative(res, u) -> bool:
    """Compare D_j|u| with a symmetric secant of the norm along D_j u, at the
    nodes the library did not flag and where the forward and backward
    secants agree (so no kink of the norm lies within the step)."""
    n, d = u.grid.n[0], u.domain.d
    x = u.values
    nx = _norm(u.space, x)
    checked = 0
    for j in range(d):
        h = _central_difference(x, j, 1.0 / n)
        nh = _norm(u.space, h)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = 1e-7 * nx / nh
            fwd = (_norm(u.space, x + t[..., None] * h) - nx) / t
            bwd = (nx - _norm(u.space, x - t[..., None] * h)) / t
            smooth = (np.abs(fwd - bwd) <= 1e-4 * (1 + nh)) & ~res.flags[j]
        got = res.fields[j].values[..., 0]
        if not np.all(np.abs(got - 0.5 * (fwd + bwd))[smooth] <= 1e-4 * (1 + nh[smooth])):
            return False
        checked += int(smooth.sum())
    # The check must cover most nodes, or it would pass vacuously.
    return checked >= 0.9 * d * nx.size


def _check_dq(rep, u) -> bool:
    n, d = u.grid.n[0], u.domain.d
    x = u.values
    vol = (1.0 / n) ** d
    want = []
    for j in range(d):
        xs = np.moveaxis(x, j, 0)
        for s in (1, 2, 4, 8, 16):
            g = _norm(u.space, xs[s:] - xs[:-s])
            lp = (np.sum(g**DQ_P) * vol) ** (1.0 / DQ_P)
            want.append((j, s, lp / (s / n)))
    got = [(r[0], r[1], r[3]) for r in rep.rows]
    return (
        [w[:2] for w in want] == [g[:2] for g in got]
        and _close([g[2] for g in got], [w[2] for w in want], 1e-10)
        and rep.verdict == "BOUNDED"
    )


def _check_holder(beta, u, seed) -> bool:
    P = _centers(u.grid.n[0], u.domain.d).reshape(-1, u.domain.d)
    V = u.values.reshape(-1, u.space.dim)
    idx = np.sort(np.random.default_rng(seed).choice(P.shape[0], size=HOLDER_NODES, replace=False))
    P, V = P[idx], V[idx]
    best = 0.0
    for lo in range(0, len(P) - 1, 128):
        hi = min(lo + 128, len(P))
        dv = _norm(u.space, V[lo:hi, None, :] - V[None, lo + 1 :, :])
        dp = np.sqrt(((P[lo:hi, None, :] - P[None, lo + 1 :, :]) ** 2).sum(-1))
        upper = np.arange(lo, hi)[:, None] < np.arange(lo + 1, len(P))[None, :]
        ok = upper & (dp > 0)
        best = max(best, float((dv[ok] / dp[ok] ** HOLDER_ALPHA).max()))
    return _close(beta, best, 1e-12)


def _check_mollify(out, u, level) -> bool:
    n, d = u.grid.n[0], u.domain.d
    h = 1.0 / n
    K = int(math.floor((1.0 / level) / h * (1 - 1e-12)))
    offs = np.arange(-K, K + 1)
    grids = np.meshgrid(*([offs] * d), indexing="ij")
    s2 = sum(((g * h * level) ** 2) for g in grids)
    w = np.where(s2 < 1, np.exp(1.0 / np.minimum(s2 - 1, -1e-300)), 0.0)
    w = w / w.sum()
    ext = np.pad(u.values, [(K, K)] * d + [(0, 0)], mode="symmetric")
    want = np.zeros_like(u.values)
    for k in np.ndindex(*w.shape):
        if w[k] > 0:
            want += w[k] * ext[tuple(slice(k[a], k[a] + n) for a in range(d))]
    return _close(out.values, want, 1e-12)


def _check_covering(counts, members) -> bool:
    vals = np.stack([m.values for m in members])
    space = members[0].space
    vol = 1.0 / COVER_NODES
    m = len(members)
    D = np.zeros((m, m))
    for i in range(m - 1):
        D[i, i + 1 :] = np.sqrt((_norm(space, vals[i + 1 :] - vals[i]) ** 2).sum(axis=1) * vol)
    D = D + D.T
    mind = D[0].copy()
    radii = []
    for _ in range(m):
        far = int(np.argmax(mind))
        radii.append(mind[far])
        mind = np.minimum(mind, D[far])
    want = [1 + next(k for k, r in enumerate(radii) if r <= eps) for eps in COVER_EPS]
    return list(counts) == want


def check_call(result, spec) -> bool:
    """True when ``result`` agrees with the reference computation."""
    kind = spec[0]
    if kind == "realize":
        return _close(result.values, _ref_realize(spec[1]), 1e-12)
    if kind == "covering_counts":
        return _check_covering(result, spec[1])
    u = spec[1][spec[2]]
    if kind == "norm_derivative_field":
        return _check_norm_derivative(result, u)
    if kind == "dq_criterion":
        return _check_dq(result, u)
    if kind == "holder_beta":
        return _check_holder(result, u, spec[3])
    if kind == "mollify":
        return _check_mollify(result, u, spec[3])
    raise ValueError(f"unknown call kind {kind!r}")
