"""Hot numeric kernels, vectorized with numpy.

``row_norms`` is the one expression of a value-space norm: ``banach.norm``,
``holder_max`` and the pairings all take their row norms from it.

Every power |x|**r of a power-sum norm (``row_norms``, ``gridfn._lp``,
``lr_gradient``) goes through ``abs_power``, which skips the zeros of
mostly-zero input: numpy's pow is several times slower on zero than on
other inputs, and 0**r is +0 anyway.
"""
from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    """Name of the kernel backend in use (always numpy)."""
    return "numpy"


BLOCK = 16  # consecutive nodes per block of holder_max's branch and bound
MARGIN = 1.0 + 1e-9  # safety factor on a block-pair bound, absorbs rounding
# floats per work buffer of holder_max: bounds its memory, and the pages
# that every call faults in afresh for its buffers: at 1 << 18 they are
# four times as many, and morrey_d1 takes about twice as long
CHUNK = 1 << 16
NODE_BLOCK = 1 << 15  # floats per node block (256 KiB): a pass's few such arrays fit in L2
SHORT_AXIS = 8  # numpy reduces an axis of fewer terms one term at a time
PROBE = 1024  # elements abs_power samples to count the nonzeros of its input


def _mostly_zero(a) -> bool:
    """Whether fewer than half of a strided probe of about ``PROBE``
    elements of the array ``a`` are nonzero."""
    probe = np.ravel(a, order="K")
    probe = probe[:: max(1, probe.size // PROBE)]
    return 2 * np.count_nonzero(probe) < probe.size


def abs_power(x, r, out=None):
    """``np.abs(x) ** r`` for r > 0, bit for bit, in a fresh array (or in
    ``out``, which may be x itself).

    numpy's pow is about 4.5 times slower on a zero than on other inputs.
    When most of the input is zero (``_mostly_zero``), the power therefore
    runs only where |x| != 0, and the zeros keep the +0 of ``np.abs``,
    which is what 0**r gives; otherwise the whole array is raised in
    place.  Both branches give the same bits, so the choice depends on the
    input alone.
    """
    a = np.abs(x, out=out)
    if _mostly_zero(a):
        np.power(a, r, out=a, where=a != 0.0)
    else:
        a **= r
    return a


def row_reduce(a, op):
    """``op.reduce(a, axis=-1)`` for ``op`` = np.maximum or np.minimum, bit for bit.

    numpy reduces an axis of fewer than ``SHORT_AXIS`` terms one term at a
    time, from the first to the last, but slowly when that axis is the
    short last axis of many rows.  There the reduction runs column by
    column, in numpy's order: the first column, then each further column
    folded in by ``op``.  Longer axes, and a single row, take numpy's own
    reduce.
    """
    k = a.shape[-1]
    if k >= SHORT_AXIS or a.ndim < 2:
        return op.reduce(a, axis=-1)
    out = op.reduce(a[..., :1], axis=-1)
    for b in range(1, k):
        op(out, a[..., b], out=out)
    return out


def row_sum(a, w):
    """``a @ w``, the w-weighted sums of the rows of a, as an array of shape
    ``a.shape[:-1]``.

    numpy's ``@`` computes a batch of rows as a BLAS matrix-vector product,
    which for rows of fewer than ``SHORT_AXIS`` terms rounds a row the same
    wherever it sits in the batch, but a lone row as a dot product, which
    rounds differently.  A lone row is therefore summed as row 0 of a
    two-row batch, the row stacked twice, so that a row's sum does not
    depend on whether the row is alone.  A row of one term is formed as the
    product plus 0.0: BLAS starts from +0, so it gives those bits, -0
    turned to +0, but costs several times more per row.

    The last bits of a longer row's sum depend on the memory order of a,
    not only on its values: numpy hands BLAS a C-ordered and an F-ordered
    operand in different layouts, whose kernels sum in different orders.  A
    copy of a in another order (``np.ascontiguousarray`` of an F-ordered
    stack, say) can therefore change the sums; a pass that blocks a
    whole-array sum keeps each block in the whole array's order.
    """
    k = a.shape[-1]
    if k == 1:
        out = np.multiply(a[..., 0], w[0], out=np.empty(a.shape[:-1]))
        out += 0.0
        return out
    if math.prod(a.shape[:-1]) == 1:
        return (np.stack((a.reshape(k),) * 2) @ w)[:1].reshape(a.shape[:-1])
    return a @ w


def node_blocks(n, width):
    """Slices that split rows 0..n-1 into consecutive node blocks of at
    most ``NODE_BLOCK`` floats, for rows of ``width`` floats.

    Block lengths differ by at most one row, the longest come first, and
    every block holds at least two rows when n >= 2, so that a block's
    window (the block and one halo row on each side, clipped to the grid)
    holds the three rows that a one-sided stencil at a grid edge reads.

    The grid passes (``SampleBlueprint.realize``, ``gridfn.mollify``,
    ``gridfn.shift_node_norms``, ``counterexamples._pos_contrast_rows``,
    the norms, differences and pairings of
    ``calculus.norm_derivative_field``, and the chain-rule comparison
    ``calculus._Comparison``, which settles each block as they form it)
    take the rows to be the first-axis rows of a node array, of ``width``
    = nodes per row times the value dimension; a block of them is a
    contiguous slice of the nodes.  The norm pass and the C(K) contrast
    read each block with its window.  The indicator witness writes
    the rows of each lag's shift difference one block at a time
    (``counterexamples._band_node_norms``), so that its n x n path is
    never formed, and the C(K) witness takes its CK_SAMPLES sample points
    as rows of width 1.
    ``theorems.covering_counts`` takes the rows to be the members of a
    family, of ``width`` = nodes times the value dimension: each block is a
    tile of members, and it forms the distances one pair of tiles at a
    time, reading (or building) each tile's members once per pair.
    """
    count = max(1, -(-n // max(3, NODE_BLOCK // width)))
    size, extra = divmod(n, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def row_norms(X, r, w, out=None):
    """Norms of the rows of X (shape (..., k)) in the weighted ell^r norm.

    The sup norm ``row_reduce(|x|, max)`` for r = inf (w unused), else
    ``(|x|**r @ w)**(1/r)`` with the space's weights w (shape (k,); ones
    for the unweighted kinds), written ``|x| @ w`` and ``sqrt(x*x @ w)`` at
    r = 1 and 2, each ``@ w`` a ``row_sum``, whose rule says how a row's
    sum rounds.  The elementwise terms go to ``out`` (X's shape; it may be
    X itself) when it is given.
    """
    if r == math.inf:
        return row_reduce(np.abs(X, out=out), np.maximum)
    if r == 1.0:
        return row_sum(np.abs(X, out=out), w)
    if r == 2.0:
        return np.sqrt(row_sum(np.multiply(X, X, out=out), w))
    return np.power(row_sum(abs_power(X, r, out=out), w), 1.0 / r)


def holder_max(V, P, alpha, r, w):
    """Pairwise Hölder quotient sup: max_{i<j} ||V_i - V_j||_X / |P_i - P_j|^alpha,
    with the norm ``row_norms(., r, w)`` (r = inf for the sup norm).

    Coincident positions are skipped; with no other pair the result is 0.

    Exact branch and bound over blocks of ``BLOCK`` consecutive nodes.  Each
    block has a value centre c (midpoint of its coordinate box), a radius
    rho (the largest ||V_i - c||) and a position box.  For blocks I, J the
    triangle inequality gives, for every i in I and j in J,

        ||V_i - V_j|| / |P_i - P_j|^alpha <= (||c_I - c_J|| + rho_I + rho_J) / gap^alpha,

    with gap the distance between the boxes.  Block pairs are taken in
    decreasing order of this bound, a chunk at a time, and the rest are
    dropped once their bound times ``MARGIN`` is below the best quotient
    found.  Every pair of an evaluated block pair gets the float expression
    of the all-pairs scan (``V_j - V_i``, its ``row_norms``,
    ``dist2 ** (alpha / 2)``, the ``dist2 > 0`` skip), so the maximum is the
    scan's, bit for bit.  The work is O(N^2) when nothing can be dropped
    (rough values, scattered positions) and far less on smooth data.

    Rounding cannot make a dropped pair the maximum.  Box gaps are float
    subtractions of box corners: rounding is monotone, so no computed pair
    separation is below the computed gap of its boxes.  The computed norms
    and powers carry relative errors of a few units in the last place for
    value dimensions below about 10**6, which ``MARGIN`` covers; ``slack``
    covers the absolute error of underflow in the power sums.  Values and
    positions must be finite, with squared distances and power sums that do
    not overflow.

    Bit identity with the scan also needs each pair's arithmetic to be the
    scan's.  Squared separations are summed axis by axis, in numpy's order
    for a short axis (see ``row_reduce``), and the norms are ``row_norms``
    of pairs in chunks, which round as the scan's rows do for value
    dimensions below ``SHORT_AXIS`` (see ``row_sum``).
    """
    V = np.ascontiguousarray(V, dtype=np.float64)
    P = np.ascontiguousarray(P, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    alpha, r = float(alpha), float(r)
    (n, k), d = V.shape, P.shape[1]
    if n < 2:
        return 0.0
    power = 0.5 * alpha
    pairs = max(BLOCK * BLOCK, CHUNK // max(k, d))  # node pairs per chunk
    diff = np.empty((pairs, k))
    dist, tmp = np.empty(pairs), np.empty(pairs)

    def chunk_max(Vr, Pr, Vc, Pc):
        """Largest quotient over the pairs of node ``Vr[s, i]`` with node
        ``Vc[s, j]``, for every set s of the batch."""
        shape = Vr.shape[:2] + Vc.shape[1:2]
        m = shape[0] * shape[1] * shape[2]
        D = diff[:m].reshape(shape + (k,))
        for b in range(k):
            np.subtract(Vc[:, None, :, b], Vr[:, :, None, b], out=D[..., b])
        dn = row_norms(diff[:m], r, w, out=diff[:m])
        # squared separations summed axis by axis, as ``row_reduce`` does
        dist2 = dist[:m]
        S, T = dist2.reshape(shape), tmp[:m].reshape(shape)
        np.subtract(Pc[:, None, :, 0], Pr[:, :, None, 0], out=S)
        S *= S
        for a in range(1, d):
            np.subtract(Pc[:, None, :, a], Pr[:, :, None, a], out=T)
            T *= T
            S += T
        ok = dist2 > 0.0
        if not ok.all():
            dn, dist2 = dn[ok], dist2[ok]
        if dn.size == 0:
            return 0.0
        dist2 **= power
        dn /= dist2
        return float(dn.max())

    best = 0.0
    # blocks over all nodes; the last block is filled up with copies of
    # node n-1, which repeat pairs but add none
    nb = -(-n // BLOCK)
    fill = np.minimum(np.arange(nb * BLOCK), n - 1)
    Vb, Pb = V[fill].reshape(nb, BLOCK, k), P[fill].reshape(nb, BLOCK, d)
    lo, hi = Pb.min(axis=1), Pb.max(axis=1)
    centre = 0.5 * (Vb.min(axis=1) + Vb.max(axis=1))
    radius = (Vb - centre[:, None]).reshape(-1, k)
    radius = row_norms(radius, r, w, out=radius).reshape(nb, BLOCK).max(axis=1)
    # underflow leaves each of the k weighted power terms of a norm off by
    # less than (1 + w) * 2**-1074, which the 1/r power turns into an
    # absolute error (a max takes none); a bound and its pair hold four norms
    slack = 4.0 * (k * (1.0 + w.max()) * 2.0**-1070) ** (1.0 / r if r < math.inf else 1.0)

    per_chunk = pairs // (BLOCK * BLOCK)  # block pairs per chunk
    group = max(1, pairs // nb)  # row blocks whose bounds are formed at once
    for i0 in range(0, nb, group):
        rows = np.arange(i0, min(i0 + group, nb))[:, None]
        gap = np.maximum(lo - hi[rows], lo[rows] - hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        bound = (centre - centre[rows]).reshape(-1, k)
        bound = row_norms(bound, r, w, out=bound).reshape(len(rows), nb)
        bound += radius
        bound += radius[rows] + slack
        with np.errstate(divide="ignore", invalid="ignore"):
            bound /= gap.sum(axis=2) ** power
        bound *= MARGIN
        I, J = np.nonzero(np.arange(nb) >= rows)  # block pairs J >= I
        bound = bound[I, J]
        order = np.argsort(-bound)  # most promising first
        I, J, bound = I[order] + i0, J[order], bound[order]
        while True:
            keep = ~(bound < best)
            I, J, bound = I[keep], J[keep], bound[keep]
            if not len(I):
                break
            c = slice(0, per_chunk)
            best = max(best, chunk_max(Vb[I[c]], Pb[I[c]], Vb[J[c]], Pb[J[c]]))
            I, J, bound = I[per_chunk:], J[per_chunk:], bound[per_chunk:]
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


def sup_pairing(X, H, nx, tie_rel):
    """Batched sup-norm one-sided pairing: extremes of <h, x'> over the
    norming functionals x' of each row of X, the coordinates within
    ``tie_rel`` of the row's norm in ``nx``.  Rows with nx = 0 are left to
    the caller."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    H = np.ascontiguousarray(H, dtype=np.float64)
    tie_rel = float(tie_rel)
    ax = np.abs(X)
    tie = ax >= (nx * (1.0 - tie_rel))[:, None]
    cand = np.where(X > 0.0, H, -H)
    plus = row_reduce(np.where(tie, cand, -np.inf), np.maximum)
    minus = row_reduce(np.where(tie, cand, np.inf), np.minimum)
    return plus, minus


def lr_gradient(X, r, nx):
    """The part of ``lr_pairing`` that depends on the rows of X alone, given
    their norms nx (``row_norms(X, r, w)``).

    Returns ``(grad, nz, den)``: the terms |x|^(r-1) sign(x), the mask of
    nonzero rows and nx^(r-1) on those rows.  Every pow runs on the
    arrays ``lr_pairing`` used to build per call, so a caller pairing the
    rows of X with several directions gets the same bits.

    At r = 2 the terms are X + 0.0 and nx^1 is nx, bit for bit: |x|^1 is
    |x|, and |x| sign(x) is x, but +0 at x = -0 (numpy's sign of -0 is +0),
    which is what adding 0.0 gives.  So no abs, pow or sign pass runs.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    r = float(r)
    nz = nx > 0.0
    if r == 2.0:
        return X + 0.0, nz, nx[nz]
    terms = abs_power(X, r - 1.0)
    terms *= np.sign(X)
    return terms, nz, nx[nz] ** (r - 1.0)


def lr_pairing(X, H, r, w, grad):
    """Batched smooth-Lr pairing (1 < r < inf): the gradient of the weighted
    power-sum norm at each row of X applied to the row of H (0 on zero
    rows).  ``grad`` is ``lr_gradient(X, r, nx)``."""
    H = np.ascontiguousarray(H, dtype=np.float64)
    terms, nz, den = grad
    num = row_sum(terms * H, w)
    if nz.all():  # no zero row
        return np.divide(num, den, out=num)
    val = np.zeros(H.shape[0])
    val[nz] = num[nz] / den
    return val
