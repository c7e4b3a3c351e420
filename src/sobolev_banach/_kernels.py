"""Hot numeric kernels, vectorized with numpy.

Norm encoding used by the kernels: ``rcode == -1.0`` means the sup norm,
any other value is the exponent of a (weighted) power-sum norm.
"""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend in use (always numpy)."""
    return "numpy"


def holder_max(V, P, alpha, rcode, w):
    """Pairwise Hölder quotient sup: max_{i<j} ||V_i - V_j||_X / |P_i - P_j|^alpha."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    alpha, rcode = float(alpha), float(rcode)
    n = V.shape[0]
    best = 0.0
    for i in range(n - 1):
        diff = V[i + 1 :] - V[i]
        if rcode == -1.0:
            dn = np.abs(diff).max(axis=1)
        elif rcode == 1.0:
            dn = np.abs(diff) @ w
        elif rcode == 2.0:
            dn = np.sqrt((diff * diff) @ w)
        else:
            dn = (np.abs(diff) ** rcode @ w) ** (1.0 / rcode)
        sep = P[i + 1 :] - P[i]
        dist2 = (sep * sep).sum(axis=1)
        ok = dist2 > 0.0
        if ok.any():
            q = (dn[ok] / dist2[ok] ** (0.5 * alpha)).max()
            if q > best:
                best = float(q)
    return best


def greedy_radii(D):
    """Covering radii of the farthest-point traversal started at index 0.

    ``radii[k]`` is the covering radius once k+1 centers are placed; it is
    nonincreasing and hits 0 at k = M-1.  N(eps) = 1 + first index with
    radius <= eps.
    """
    D = np.ascontiguousarray(D, dtype=np.float64)
    m = D.shape[0]
    radii = np.empty(m)
    mind = D[0].copy()
    for k in range(m):
        far = int(np.argmax(mind))
        radii[k] = mind[far]
        np.minimum(mind, D[far], out=mind)
    return radii


def sup_pairing(X, H, tie_rel=1e-12):
    """Batched sup-norm one-sided pairing: extremes of <h, x'> over the
    norming functionals x' of each row of X (the coordinates within
    ``tie_rel`` of the max), and +-|h|_inf on zero rows."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    H = np.ascontiguousarray(H, dtype=np.float64)
    tie_rel = float(tie_rel)
    ax = np.abs(X)
    nx = ax.max(axis=1)
    tie = ax >= (nx * (1.0 - tie_rel))[:, None]
    cand = np.where(X > 0.0, H, -H)
    plus = np.where(tie, cand, -np.inf).max(axis=1)
    minus = np.where(tie, cand, np.inf).min(axis=1)
    zero = nx == 0.0
    if zero.any():
        hn = np.abs(H).max(axis=1)
        plus = np.where(zero, hn, plus)
        minus = np.where(zero, -hn, minus)
    return plus, minus


def lr_pairing(X, H, r, w):
    """Batched smooth-Lr pairing (1 < r < inf): the gradient of the weighted
    power-sum norm at each row of X applied to the row of H (0 on zero rows),
    together with the row norms."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    H = np.ascontiguousarray(H, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    r = float(r)
    ax = np.abs(X)
    nx = (ax**r @ w) ** (1.0 / r)
    num = (ax ** (r - 1.0) * np.sign(X) * H) @ w
    val = np.zeros(X.shape[0])
    nz = nx > 0.0
    val[nz] = num[nz] / nx[nz] ** (r - 1.0)
    return val, nx
