"""The numpy kernels against reference loops, plus properties.

The references are plain Python, one scalar operation at a time, except
for ``holder_max``: its result must equal the all-pairs scan it replaced
bit for bit, and that scan is its reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_banach import _kernels, banach

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def holder_max_ref(V, P, alpha, r, w):
    """The all-pairs scan that the branch and bound replaced, one numpy row
    per node: its float expressions are the ones the kernel must reproduce.
    The lone last row is summed as a row of a batch is, as row 0 of two."""
    n = V.shape[0]
    best = 0.0
    for i in range(n - 1):
        diff = V[i + 1 :] - V[i]
        if i == n - 2:
            diff = np.vstack([diff, diff])
        if r == math.inf:
            dn = np.abs(diff).max(axis=1)
        elif r == 1.0:
            dn = np.abs(diff) @ w
        elif r == 2.0:
            dn = np.sqrt((diff * diff) @ w)
        else:
            dn = (np.abs(diff) ** r @ w) ** (1.0 / r)
        dn = dn[: n - 1 - i]
        sep = P[i + 1 :] - P[i]
        dist2 = (sep * sep).sum(axis=1)
        ok = dist2 > 0.0
        if ok.any():
            q = (dn[ok] / dist2[ok] ** (0.5 * alpha)).max()
            if q > best:
                best = float(q)
    return best


def holder_max_loop(V, P, alpha, r, w):
    """The definition, one scalar operation at a time.  Its sums run in
    another order than BLAS's, so it agrees with the kernel to rounding."""
    n = V.shape[0]
    k = V.shape[1]
    d = P.shape[1]
    best = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dist2 = 0.0
            for a in range(d):
                t = P[i, a] - P[j, a]
                dist2 += t * t
            if dist2 <= 0.0:
                continue
            if r == math.inf:
                dn = 0.0
                for b in range(k):
                    t = abs(V[i, b] - V[j, b])
                    if t > dn:
                        dn = t
            elif r == 1.0:
                dn = 0.0
                for b in range(k):
                    dn += w[b] * abs(V[i, b] - V[j, b])
            elif r == 2.0:
                s = 0.0
                for b in range(k):
                    t = V[i, b] - V[j, b]
                    s += w[b] * t * t
                dn = np.sqrt(s)
            else:
                s = 0.0
                for b in range(k):
                    s += w[b] * abs(V[i, b] - V[j, b]) ** r
                dn = s ** (1.0 / r)
            q = dn / dist2 ** (0.5 * alpha)
            if q > best:
                best = q
    return best


def greedy_radii_ref(D):
    m = D.shape[0]
    radii = np.empty(m)
    mind = D[0].copy()
    for k in range(m):
        far = 0
        best = mind[0]
        for i in range(1, m):
            if mind[i] > best:
                best = mind[i]
                far = i
        radii[k] = best
        for i in range(m):
            if D[far, i] < mind[i]:
                mind[i] = D[far, i]
    return radii


def sup_pairing_ref(X, H, tie_rel):
    n, k = X.shape
    plus = np.empty(n)
    minus = np.empty(n)
    for i in range(n):
        nx = 0.0
        for b in range(k):
            t = abs(X[i, b])
            if t > nx:
                nx = t
        if nx == 0.0:
            hn = 0.0
            for b in range(k):
                t = abs(H[i, b])
                if t > hn:
                    hn = t
            plus[i] = hn
            minus[i] = -hn
            continue
        thr = nx * (1.0 - tie_rel)
        hi = -np.inf
        lo = np.inf
        for b in range(k):
            if abs(X[i, b]) >= thr:
                c = H[i, b] if X[i, b] > 0.0 else -H[i, b]
                if c > hi:
                    hi = c
                if c < lo:
                    lo = c
        plus[i] = hi
        minus[i] = lo
    return plus, minus


def lr_pairing_ref(X, H, r, w):
    n, k = X.shape
    val = np.empty(n)
    nx = np.empty(n)
    for i in range(n):
        s = 0.0
        for b in range(k):
            s += w[b] * abs(X[i, b]) ** r
        nrm = s ** (1.0 / r)
        nx[i] = nrm
        if nrm == 0.0:
            val[i] = 0.0
            continue
        acc = 0.0
        for b in range(k):
            x = X[i, b]
            if x > 0.0:
                acc += w[b] * x ** (r - 1.0) * H[i, b]
            elif x < 0.0:
                acc -= w[b] * (-x) ** (r - 1.0) * H[i, b]
        val[i] = acc / nrm ** (r - 1.0)
    return val, nx


# ---------------------------------------------------------------------------
# kernels against the references
# ---------------------------------------------------------------------------


def _trig(x, k):
    """A smooth blend of low-order trig terms per coordinate."""
    freq = np.arange(1, k + 1)
    return np.sin(np.pi * np.outer(x, freq)) + 0.5 * np.cos(3.0 * np.outer(x, freq) + 1.0)


def _holder_case(name, rng):
    """(V, P, w) of one test case."""
    k = 5
    if name.startswith("n="):
        n = int(name[2:])
        V, P = rng.normal(size=(n, k)), rng.random((n, 1))
    elif name == "noise-2d":
        V, P = rng.normal(size=(300, k)), rng.random((300, 2))
    elif name == "trig-1d":
        x = np.sort(rng.random(600))
        V, P = _trig(x, k), x[:, None]
    elif name == "trig-unsorted-2d":
        P = rng.random((400, 2))
        V = _trig(P[:, 0], k) + _trig(P[:, 1], k)[:, ::-1]
    elif name == "coincident":
        V, P = rng.normal(size=(100, k)), rng.random((100, 2))
        # coincident points with different values: the pairs are skipped,
        # not turned into infinite quotients
        P[[7, 40, 41, 99]] = P[31]
    elif name == "all-coincident":
        # no admissible pair at all: the result is 0
        V, P = rng.normal(size=(20, k)), np.zeros((20, 2))
    elif name == "tie-across-blocks":
        # the values repeat every block on integer positions, so shifted
        # block pairs hold exactly the same quotients
        P = np.arange(160.0)[:, None]
        V = np.tile(rng.normal(size=(16, k)), (10, 1))
    elif name == "max-at-last-pair":
        # the scan evaluated the last pair alone
        x = np.linspace(0.0, 1.0, 200)
        V, P = _trig(x, k), x[:, None]
        V[-1] += 5.0
    return V, P, rng.random(k) + 0.1


HOLDER_CASES = [
    "n=1", "n=2", "n=7", "n=16", "n=37", "noise-2d", "trig-1d",
    "trig-unsorted-2d", "coincident", "all-coincident", "tie-across-blocks",
    "max-at-last-pair",
]


def test_holder_max_parity():
    for case in HOLDER_CASES:
        V, P, w = _holder_case(case, np.random.default_rng(11))
        for r in (math.inf, 1.0, 2.0, 3.5):
            for alpha in (0.5, 1.0):
                a = _kernels.holder_max(V, P, alpha, r, w)
                b = holder_max_ref(V, P, alpha, r, w)
                assert a == b, (case, r, alpha)
                if len(V) <= 100:
                    c = holder_max_loop(V, P, alpha, r, w)
                    assert abs(b - c) <= 1e-12 * abs(c), (case, r, alpha)


def _pairs_normed(monkeypatch, V, P, r):
    """Rows the kernel hands to the norm: bounds plus evaluated pairs."""
    rows = []
    row_norms = _kernels.row_norms

    def counting(X, r, w, out=None):
        rows.append(len(X))
        return row_norms(X, r, w, out)

    monkeypatch.setattr(_kernels, "row_norms", counting)
    _kernels.holder_max(V, P, 0.5, r, np.ones(V.shape[1]))
    return sum(rows)


def test_holder_max_skips_blocks_on_smooth_data(monkeypatch):
    # at r = inf the count also catches an underflow slack that would take
    # the power 1/r = 0 and stop all pruning
    n = 3072
    x = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(2)
    V, P = rng.normal(size=(512, 3)), rng.random((512, 2))
    for r in (2.0, math.inf):
        smooth = _pairs_normed(monkeypatch, _trig(x, 3), x[:, None], r)
        assert smooth < 0.1 * n * (n - 1) // 2, r
        assert _pairs_normed(monkeypatch, V, P, r) >= 512 * 511 // 2, r


def test_greedy_radii_parity_and_shape():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    radii = _kernels.greedy_radii(D)
    assert np.array_equal(radii, greedy_radii_ref(D))
    assert radii.shape == (40,)
    # covering radii shrink as centers are added and hit zero at the end
    assert np.all(np.diff(radii) <= 1e-15)
    assert radii[-1] == 0.0


def test_greedy_radii_three_clusters():
    # three tight clusters: two centers leave one cluster uncovered,
    # three centers cover everything at the cluster scale
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.concatenate([c + 0.01 * rng.normal(size=(15, 2)) for c in centers])
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    radii = _kernels.greedy_radii(D)
    assert np.array_equal(radii, greedy_radii_ref(D))
    assert radii[1] > 5.0
    assert radii[2] < 0.1


def test_sup_pairing_skips_a_nan_off_the_ties():
    # an overflowing boundary stencil can put a NaN in a direction: off the
    # ties it is skipped, on a tie it makes both sides NaN, as a mask of the
    # ties with -+inf elsewhere (np.where) gives
    X = np.array([[2.0, 1.0, -2.0], [2.0, 1.0, 0.5]])
    H = np.array([[0.5, np.nan, -1.0], [np.nan, 3.0, 1.0]])
    nx = np.abs(X).max(axis=1)
    tie = np.abs(X) >= (nx * (1.0 - banach.TIE_REL))[:, None]
    plus, minus = _kernels.sup_pairing(X, H, np.where(tie, np.nan, -np.inf))
    assert plus[0] == 1.0 and minus[0] == 0.5
    assert np.isnan(plus[1]) and np.isnan(minus[1])


def test_sup_pairing_parity_and_zero_rows():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 6))
    X[17] = 0.0
    # a tied maximum |x_1| = |x_4| with opposite signs: the one-sided
    # derivatives are the extremes of h_1 and -h_4
    X[42] = [0.3, 2.0, -0.1, 0.5, -2.0, 1.0]
    H = rng.normal(size=(300, 6))
    nx = np.abs(X).max(axis=1)
    tie = np.abs(X) >= (nx * (1.0 - banach.TIE_REL))[:, None]
    plus, minus = _kernels.sup_pairing(X, H, np.where(tie, np.nan, -np.inf))
    ref_plus, ref_minus = sup_pairing_ref(X, H, banach.TIE_REL)
    nz = nx > 0.0
    assert np.array_equal(plus[nz], ref_plus[nz]) and np.array_equal(minus[nz], ref_minus[nz])
    # the kernel leaves zero rows to the batch, which gives them +-|h|_inf
    space = banach.SpaceDescriptor("SampledSup", 6)
    plus, minus, _ = banach.one_sided_norm_derivative_batch(space, X, H)
    assert np.array_equal(plus, ref_plus) and np.array_equal(minus, ref_minus)
    assert plus[17] == np.abs(H[17]).max()
    assert minus[17] == -np.abs(H[17]).max()
    assert plus[42] == max(H[42, 1], -H[42, 4])
    assert minus[42] == min(H[42, 1], -H[42, 4])


def test_lr_pairing_parity():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(300, 4))
    X[5] = 0.0
    H = rng.normal(size=(300, 4))
    w = rng.random(4) + 0.1
    for r in (1.5, 2.0, 3.0):
        nx = _kernels.row_norms(X, r, w)
        val = _kernels.lr_pairing(X, H, r, w, _kernels.lr_gradient(X, r, nx))
        ref_val, ref_nx = lr_pairing_ref(X, H, r, w)
        assert np.allclose(val, ref_val, rtol=1e-12, atol=1e-14)
        assert np.allclose(nx, ref_nx, rtol=1e-12, atol=0.0)
        assert val[5] == 0.0 and nx[5] == 0.0


def test_row_sum_sums_a_lone_row_as_in_a_batch():
    # an array of shape a.shape[:-1], never a numpy scalar, with the bits
    # the row gets in a batch
    rng = np.random.default_rng(12)
    for k in range(1, _kernels.SHORT_AXIS):
        batch, w = rng.normal(size=(9, k)), rng.random(k) + 0.1
        want = (batch @ w).view(np.uint64)
        for i, row in enumerate(batch):
            for shape in ((k,), (1, k), (1, 1, k)):
                got = _kernels.row_sum(row.reshape(shape), w)
                assert isinstance(got, np.ndarray) and got.shape == shape[:-1]
                assert got.reshape(1).view(np.uint64) == want[i], (k, i, shape)


def test_node_blocks_cover_rows_in_even_blocks_of_two_or_more(monkeypatch):
    monkeypatch.setattr(_kernels, "NODE_BLOCK", 12)
    for width in (1, 3, 4, 5, 13):
        for n in range(0, 60):
            blocks = _kernels.node_blocks(n, width)
            lengths = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert lengths == sorted(lengths, reverse=True)
            assert max(lengths) - min(lengths) <= 1
            assert max(lengths) <= max(3, 12 // width)
            if n >= 2:
                assert min(lengths) >= 2


# ---------------------------------------------------------------------------
# abs_power: the zero-skipping power against the plain one
# ---------------------------------------------------------------------------

POWER_CASES = dict(derandomize=True, max_examples=200, deadline=None)
#: the issue's exponents, plus 0.5 and 2, for which ``**`` may take numpy's
#: sqrt and square shortcuts (2 is the Sobolev exponent of ``_lp``)
POWERS = (0.5, 1.5, 2.0, 2.5, 3.0, 4.0, 7.25)


@st.composite
def power_inputs(draw):
    """Arrays of one row or many, with a share of zeros from none to all,
    signed zeros, subnormals and values whose powers underflow."""
    shape = draw(st.sampled_from([(1, 7), (1, 3000), (9, 5), (40, 130), (2500,)]))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    x[rng.random(shape) < 0.05] = 5e-324 * rng.integers(1, 2**20)  # subnormals
    x[rng.random(shape) < 0.05] = -1e-200  # |x|**r underflows to +0
    x[rng.random(shape) < zeros] = 0.0
    x[rng.random(shape) < 0.3 * zeros] = -0.0
    return x


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(power_inputs(), st.sampled_from(POWERS))
@settings(**POWER_CASES)
def test_abs_power_is_the_plain_power_on_both_branches(x, r):
    want = _bits(np.abs(x) ** r)
    assert np.array_equal(_bits(_kernels.abs_power(x, r)), want)
    for masked in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_mostly_zero", lambda a: masked)
            assert np.array_equal(_bits(_kernels.abs_power(x, r)), want)
            out = x.copy()
            assert _kernels.abs_power(out, r, out=out) is out
            assert np.array_equal(_bits(out), want)


def test_abs_power_skips_zeros_when_most_are_zero(monkeypatch):
    chosen = []
    probe = _kernels._mostly_zero
    monkeypatch.setattr(_kernels, "_mostly_zero", lambda a: chosen.append(probe(a)) or chosen[-1])
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((300, 700))
    i = np.arange(700)
    indicator = (i[None, :] < i[:, None]).astype(np.float64)
    cases = [
        (dense, False),
        (dense * (rng.random(dense.shape) < 0.7), False),
        (dense * (rng.random(dense.shape) < 0.01), True),
        (np.zeros((3, 5)), True),
        (-np.zeros(4000), True),
        (indicator[4:] - indicator[:-4], True),  # the indicator witness's differences
        (np.empty((0, 3)), False),
    ]
    for x, masked in cases:
        chosen.clear()
        _kernels.abs_power(x, 4.0)
        assert chosen == [masked]


# ---------------------------------------------------------------------------
# row_sum: a one-term row as a product, against numpy's ``@``
# ---------------------------------------------------------------------------


@given(power_inputs(), st.sampled_from([1.0, 0.25, 1.0 / 3.0, 7.5, 1e-300]), st.booleans())
@settings(**POWER_CASES)
def test_row_sum_is_matmul(x, w0, signed):
    # one-term rows: signed zeros, subnormals, underflowing products, inf, NaN
    a = (x if signed else np.abs(x)).reshape(-1, 1)
    a[::13] = np.inf
    a[::17] = np.nan
    a[::19] = -np.inf if signed else np.inf
    w = np.array([w0])
    with np.errstate(all="ignore"):
        for rows in (a, a[:1], a[0], a[: len(a) // 2 * 2].reshape(2, -1, 1)):
            assert np.array_equal(_bits(_kernels.row_sum(rows, w)), _bits(rows @ w))
    wide = np.stack([x.ravel()[:6], np.zeros(6)], axis=1)  # two terms: numpy's ``@`` itself
    assert np.array_equal(_bits(_kernels.row_sum(wide, np.array([w0, 1.0]))), _bits(wide @ [w0, 1.0]))
