"""Named verification entries behind the command line.

Every entry bundles one quantitative claim into a builder that returns
a value per declared row, each compared into (metric, value, threshold,
pass).  Builders are pure functions of (rng, params), and only
``entry_params`` refines, so a fixed seed reproduces every row bit-for-bit.
Each entry is declared once, by ``_entry`` on its builder: the anchor, the
rows, and the params, which the config check, ``describe`` and
``entry_params`` read.
"""
from __future__ import annotations

import math
import operator
import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _kernels, calculus, counterexamples, theorems
from .banach import SpaceDescriptor
from .calculus import (
    compose_lipschitz,
    dq_criterion,
    gateaux_chain_field,
    holder_beta,
    norm_derivative_field,
    norm_derivative_report,
    norm_lipschitz_map,
    pos_derivative_field,
    abs_derivative_field,
    product_rule_check,
    quotient_rule_field,
    stampacchia_check,
)
from .errors import ContractError, OrderContinuityError, check_count, field_errors, value_errors
from .gridfn import (
    GridFunction,
    GridSpec,
    _bump,
    bochner_norm,
    finite_difference,
    from_scalar,
    grid_centers,
    interior_mask,
    pointwise_norm_function,
    pointwise_norms,
    unit_box,
    w_norm,
)
from .reports import fit_loglog, to_jsonable


@dataclass(frozen=True)
class Row:
    metric: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    anchor: str
    summary: str
    builder: Callable[..., tuple[dict, dict]]
    params: dict[str, tuple]
    declared: tuple  # the rows as ``_entry`` takes them

    @property
    def rows(self) -> tuple[tuple[str, str, float | None], ...]:
        """(metric, direction, threshold) per row; a producer's constant is read now."""
        return tuple((m, d, t() if callable(t) else t) for m, d, t in self.declared)


CATALOG: dict[str, CatalogEntry] = {}
SPEC_FIELDS = {"refine": (0, 0, 3)}  # a spec's refine level, declared like a param
GRID_2D = 64  # cells per axis of a 2-D member where ``n`` sizes the 1-D ones
MEASURED = None  # the threshold of a row whose run measures it
DIRECTIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}
YES = (">=", 1.0)  # a yes/no row: True reads 1.0, False 0.0


def _entry(anchor: str, summary: str, rows: list, **params):
    """Register the decorated builder ``_<name>`` as catalog entry ``<name>``.

    ``rows`` declares each row as ``(metric, direction, threshold)``, and
    the builder returns a value per metric in that order, or (value,
    threshold) where the threshold is ``MEASURED``.  A threshold that a
    producer's verdict shares is a function reading its constant.  Each
    keyword declares a param as ``(default, smallest, largest accepted
    value)`` and reaches the builder as a keyword after ``rng``.  The
    default's type is the param's type: a tuple is a ladder, a float a real
    number, an int an integer.  The grid rule: ladders and every param named
    ``n`` are grid sizes, which ``entry_params`` doubles ``refine`` times (a
    ladder only while its top level stays within its largest value); every
    other int is a count, and ``GRID_2D`` is the one size refine leaves alone.
    """

    def register(builder):
        name = builder.__name__[1:]
        CATALOG[name] = CatalogEntry(name, anchor, summary, builder, params, tuple(rows))
        return builder

    return register


def entry_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def compare(metric: str, value, direction: str, threshold) -> Row:
    """The row of ``metric``: ``value`` against ``threshold`` by the
    ``direction`` ``<=``, ``>=`` or ``<``, both as the floats it prints."""
    value, threshold = float(value), float(threshold)
    return Row(metric, value, threshold, DIRECTIONS[direction](value, threshold))


def _median(a) -> float:
    """``np.median`` of the nonempty 1-D array ``a``, bit for bit: the mean
    of its middle one or two sorted values, or NaN if it holds a NaN.
    ``np.median`` imports numpy.ma to look for masked input."""
    s = np.sort(a)
    if np.isnan(s[-1]):  # sorting puts NaNs last
        return math.nan
    return float(np.mean(s[(s.size - 1) // 2 : s.size // 2 + 1]))


# ---------------------------------------------------------------------------
# seeded sample corpus
# ---------------------------------------------------------------------------

KIND_SPECS: tuple[tuple[str, SpaceDescriptor], ...] = (
    ("hilbert", SpaceDescriptor("Hilbert", 3)),
    ("l1", SpaceDescriptor("FiniteLr", 3, exponent=1.0)),
    ("sup", SpaceDescriptor("SampledSup", 3)),
    ("gridlr15", SpaceDescriptor("GridLr", 4, exponent=1.5)),
    ("gridlr2", SpaceDescriptor("GridLr", 4, exponent=2.0)),
    ("gridlr3", SpaceDescriptor("GridLr", 4, exponent=3.0)),
)


@dataclass(frozen=True)
class SampleBlueprint:
    """Grid-independent recipe for one corpus member: a low-order trig
    blend per coordinate, re-evaluated at any resolution."""

    space: SpaceDescriptor
    d: int
    const: np.ndarray  # (dim,)
    amp_sin: np.ndarray  # (dim, K, d)
    amp_cos: np.ndarray  # (dim, K, d)

    def row_writer(self, n: int) -> Callable[[int, int, np.ndarray], np.ndarray]:
        """``write(a, b, out)``, which writes the first-axis rows [a, b) of
        the member on the grid of n cells per axis into ``out`` (shape
        ``(b - a,) + (n,) * (d - 1) + (dim,)``) and returns it.

        Each term depends on one coordinate only, so its wave is evaluated
        on the axis, here, and broadcast along axis j.  The sum runs in the
        order (vals + s*a) + c*b of the full-mesh formula, so every node
        has the same expression whatever rows are asked for.  A term along
        an axis j >= 1 forms its product on that axis once; one along axis
        0 forms it on the rows asked for.  For d >= 2 the leading terms,
        those along axis 0, are summed with ``const`` on that axis alone,
        and the rows start as a copy of that head.

        For d >= 2 the head and every term along axis 0 reach the rows one
        value coordinate at a time (``out[..., c] += t[..., c]``): the
        same additions in the same order, but numpy broadcasts a whole
        term along the middle axes about three times slower.
        """
        axes = GridSpec((n,) * self.d).axes(unit_box(self.d))
        dim, K = self.amp_sin.shape[:2]
        terms = []  # (wave, amp) along axis 0, (product, None) along the others
        for k in range(K):
            for j in range(self.d):
                shape = [1] * (self.d + 1)
                shape[j] = n
                arg = (k + 1) * np.pi * axes[j]
                for wave, amp in ((np.sin(arg), self.amp_sin[:, k, j]),
                                  (np.cos(arg), self.amp_cos[:, k, j])):
                    wave = wave.reshape(shape)
                    terms.append((wave, amp) if j == 0 else (wave * amp, None))
        head = self.const  # in 1-D a head on axis 0 would be the whole array
        while self.d >= 2 and terms and terms[0][1] is not None:
            wave, amp = terms.pop(0)
            head = head + wave * amp

        def write(a: int, b: int, out: np.ndarray) -> np.ndarray:
            if head.ndim == 1:
                out[...] = head
            else:
                for c in range(dim):
                    out[..., c] = head[a:b, ..., c]
            for wave, amp in terms:
                if amp is None:
                    out += wave
                elif self.d == 1:
                    out += wave[a:b] * amp
                else:
                    t = wave[a:b] * amp
                    for c in range(dim):
                        out[..., c] += t[..., c]
            return out

        return write

    def realize(self, n: int) -> GridFunction:
        """The member on the grid of n cells per axis: its ``row_writer``
        over its node blocks (``_kernels.node_blocks`` over the first grid
        axis), so each block's terms are added while it stays in cache."""
        grid = GridSpec((n,) * self.d)
        vals = np.empty(grid.n + (self.space.dim,))
        write = self.row_writer(n)
        for blk in _kernels.node_blocks(n, vals[0].size):
            write(blk.start, blk.stop, vals[blk])
        return GridFunction(unit_box(self.d), grid, self.space, vals)


def corpus_blueprints(
    rng: np.random.Generator, per_kind_1d: int = 4, per_kind_2d: int = 1
) -> list[SampleBlueprint]:
    out = []
    for _, space in KIND_SPECS:
        for d, count in ((1, per_kind_1d), (2, per_kind_2d)):
            for _ in range(count):
                dim, K = space.dim, 2
                amp = 0.5 + 1.5 * rng.random()
                out.append(
                    SampleBlueprint(
                        space=space,
                        d=d,
                        const=rng.normal(scale=amp, size=dim),
                        amp_sin=rng.normal(scale=amp / 2, size=(dim, K, d)),
                        amp_cos=rng.normal(scale=amp / 2, size=(dim, K, d)),
                    )
                )
    return out


def _interval(n: int):
    """The unit interval, its grid of n cells and the cell centres."""
    dom = unit_box(1)
    grid = GridSpec((n,))
    return dom, grid, grid_centers(dom, grid)[..., 0]


def circle_sample(n: int) -> GridFunction:
    """Unit-speed circle scaled to radius 1/(2pi): constant pointwise norm
    with unit-norm derivative — the strictness witness for the norm
    estimate."""
    dom, grid, t = _interval(n)
    vals = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1) / (
        2 * np.pi
    )
    return GridFunction(dom, grid, SpaceDescriptor("Hilbert", 2), vals)


def _ladder(base: tuple[int, ...], refine: int, top: int) -> tuple[int, ...]:
    """The levels of ``base`` scaled by 2**r, for the largest r <= refine
    that keeps the top level within ``top``, so no level repeats."""
    while refine and max(base) * 2**refine > top:
        refine -= 1
    return tuple(n * 2**refine for n in base)


def _fit_order(ns, errs) -> float:
    hs = [1.0 / n for n in ns]
    pos = [(h, e) for h, e in zip(hs, errs) if e > 0.0]
    if len(pos) < 2:
        return math.nan  # nothing to fit, so every order row fails
    slope, _ = fit_loglog([h for h, _ in pos], [e for _, e in pos])
    return slope


# ---------------------------------------------------------------------------
# entry builders
# ---------------------------------------------------------------------------


@_entry(
    "Chain rule for the pointwise norm: D_j|u| equals the norming-functional "
    "pairing of D_j u",
    "Discrepancy between the one-sided pairing field and the finite "
    "difference of the pointwise norm decays under refinement over a "
    "30-sample corpus spanning every space kind.",
    [("fitted_order", ">=", 0.9), ("final_l1_err", "<", MEASURED)],
    ladder=((32, 64, 128, 256), 16, 512),
)
def _norm_chain_rule(rng, ladder):
    bps = corpus_blueprints(rng)
    errs = []
    for n in ladder:
        total = 0.0
        for bp in bps:
            # the member is realized one window of rows at a time
            total += norm_derivative_report(bp, n).details["l1_err_total"]
        errs.append(total)
    values = {"fitted_order": _fit_order(ladder, errs), "final_l1_err": (errs[-1], errs[0])}
    return values, {"ladder": list(ladder), "l1_errors": errs}


@_entry(
    "Norm estimate |D_j (pointwise norm)| <= |D_j u| with the circle path "
    "showing strict inequality",
    "Nodewise inequality with 1e-12 relative slack on interior unflagged "
    "nodes; the constant-norm circle achieves zero left side against a "
    "unit right side.",
    [("nodewise_margin_rel", "<=", 1e-12), ("circle_lhs_max", "<=", 1e-10),
     ("circle_rhs_gap", "<=", 0.1)],
    n=(128, 8, 512),
)
def _norm_gradient_bound(rng, n):
    bps = corpus_blueprints(rng)
    worst = 0.0
    for bp in bps:
        u = bp.realize(n if bp.d == 1 else min(n, GRID_2D))
        nd = norm_derivative_field(u)
        g = pointwise_norm_function(u)
        dg = finite_difference(g)
        du = finite_difference(u)
        inner = interior_mask(u.grid)
        for j in range(u.domain.d):
            lhs = np.abs(dg[j].values[..., 0])
            rhs = pointwise_norms(du[j])
            ok = inner & ~nd.flags[j]
            if not np.any(ok):
                continue
            margin = np.max((lhs - rhs)[ok]) / (1.0 + float(np.max(rhs[ok])))
            worst = max(worst, float(margin))
    circ = circle_sample(n)
    dgc = finite_difference(pointwise_norm_function(circ))
    lhs_max = float(np.max(np.abs(dgc[0].values)))
    rhs_typ = _median(pointwise_norms(finite_difference(circ)[0]))
    values = {"nodewise_margin_rel": worst, "circle_lhs_max": lhs_max,
              "circle_rhs_gap": abs(rhs_typ - 1.0)}
    return values, {"n": n, "circle_rhs": rhs_typ}


@_entry(
    "Lattice chain rules: D_j|u| = sign(u) D_j u and D_j u+ = 1_{u>0} D_j u "
    "under order continuity",
    "Absolute-value and positive-part fields match finite differences at "
    "order >= 0.9; pos = (abs + D)/2 bit-exactly off the zero set; the "
    "sup norm is rejected for lacking order continuity.",
    [("abs_fitted_order", ">=", 0.9), ("pos_fitted_order", ">=", 0.9),
     ("pos_half_identity_exact", *YES), ("sup_norm_rejected", *YES)],
    ladder=((32, 64, 128, 256), 32, 512),
)
def _lattice_chain_rules(rng, ladder):
    corpus = corpus_blueprints(rng)
    bps = [bp for bp in corpus if bp.space.order_continuous
           and bp.space.lattice_capable and bp.d == 1]
    abs_errs, pos_errs = [], []
    for n in ladder:
        ta = tp = 0.0
        for bp in bps:
            u = bp.realize(n)
            ta += abs_derivative_field(u).report.details["l1_err_total"]
            tp += pos_derivative_field(u).report.details["l1_err_total"]
        abs_errs.append(ta)
        pos_errs.append(tp)
    # pos = (abs + identity)/2 bit-exactly wherever no coordinate vanishes
    u = bps[0].realize(ladder[-1])
    d = finite_difference(u)
    av = abs_derivative_field(u).fields[0].values
    pv = pos_derivative_field(u).fields[0].values
    nz = u.values != 0.0
    exact = bool(np.array_equal(pv[nz], (0.5 * (av + d[0].values))[nz]))
    sup_bp = next(bp for bp in corpus if bp.space.kind == "SampledSup")
    try:
        pos_derivative_field(sup_bp.realize(64))
        sup_raised = False
    except OrderContinuityError:
        sup_raised = True
    values = {"abs_fitted_order": _fit_order(ladder, abs_errs),
              "pos_fitted_order": _fit_order(ladder, pos_errs),
              "pos_half_identity_exact": exact, "sup_norm_rejected": sup_raised}
    return values, {"ladder": list(ladder), "abs_errors": abs_errs, "pos_errors": pos_errs}


@_entry(
    "Difference Quotient Criterion: shift quotients bounded by the "
    "derivative norm, with equality in the limit",
    "For smooth corpus members the criterion constant converges to "
    "max_j |D_j u|_p at first order and the verdict stays BOUNDED.",
    [("c_est_fitted_order", ">=", 1.0), ("all_bounded", *YES)],
    ladder=((64, 128, 256, 512), 16, 512), p=(2.0, 1, 64),
)
def _dq_criterion(rng, ladder, p):
    # cosine-only blends: the derivative vanishes at the boundary, so the
    # criterion's shrinking-window deficit is negligible and the measured
    # decay isolates the quotient-vs-derivative convergence itself
    bps = [
        replace(bp, amp_sin=np.zeros_like(bp.amp_sin))
        for bp in corpus_blueprints(rng)
        if bp.d == 1
    ][:12]
    errs, bounded = [], True
    for n in ladder:
        total = 0.0
        for bp in bps:
            u = bp.realize(n)
            rep = dq_criterion(u, p, steps_list=(1, 2, 4, 8))
            bounded &= rep.passed
            du = finite_difference(u)
            ref = max(bochner_norm(du[j], p) for j in range(u.domain.d))
            total += abs(rep.details["c_est"] - ref)
        errs.append(total)
    values = {"c_est_fitted_order": _fit_order(ladder, errs), "all_bounded": bounded}
    return values, {"ladder": list(ladder), "c_est_errors": errs}


@_entry(
    "Difference Quotient Criterion divergence for the moving indicator "
    "(no Radon-Nikodym property)",
    "The indicator path into L^2 fits slope -0.5 +/- 0.05 with verdict "
    "DIVERGENT, while the L^1 variant stays BOUNDED and scalar pairings "
    "remain Lipschitz.",
    [("slope_gap_r2", "<=", 0.05), ("divergent_r2", *YES), ("bounded_r1", *YES),
     ("pairing_bounded", *YES)],
    n=(256, 64, 512),
)
def _dq_criterion_indicator(rng, n):
    w = counterexamples.indicator_path_witness(r=2.0, n=n)
    slope = w.details["criterion_slope"]
    w1 = counterexamples.indicator_path_witness(r=1.0, n=n)
    values = {"slope_gap_r2": abs(slope + 0.5),
              "divergent_r2": w.details["criterion_verdict"] == "DIVERGENT",
              "bounded_r1": w1.details["criterion_verdict"] == "BOUNDED",
              "pairing_bounded": w.details["pairing_verdict"] == "BOUNDED"}
    return values, {"slope": slope, "verdict": w.verdict}


def _w0_corpus(rng, ladder):
    """Per level of ``ladder``, 10 zero-trace members and 10 members with
    live boundary values: the same 20 functions on every level's grid."""
    coeffs = []
    for i in range(10):
        a = rng.normal(scale=1.0, size=3)
        b = rng.normal(scale=0.5, size=3)
        c = rng.normal(scale=1.0, size=3)
        c[i % 3] += 2.0  # keep the boundary value well away from zero
        coeffs.append((a, b, c, rng.normal(size=3)))
    space = SpaceDescriptor("Hilbert", 3)
    levels = []
    for n in ladder:
        dom, grid, t = _interval(n)
        env = np.sin(np.pi * t)
        members, non_members = [], []
        for a, b, c, wiggle in coeffs:
            body = a + b * np.cos(np.pi * t)[:, None] * 0.5
            members.append(GridFunction(dom, grid, space, env[:, None] * body))
            wave = 0.3 * np.sin(2 * np.pi * t)[:, None] * wiggle
            non_members.append(
                GridFunction(dom, grid, space, np.broadcast_to(c, (n, 3)) + wave)
            )
        levels.append((members, non_members))
    return levels


@_entry(
    "Poincare inequality with the first Dirichlet eigenvalue as sharp "
    "constant",
    "The discrete eigenvalue on n cells matches pi^2 within 1%, and every "
    "zero-trace corpus member on n/2 cells satisfies |u'| >= pi |u| (1 - 0.01).",
    [("eigenvalue_rel_gap", "<=", 0.01), ("min_ratio_over_constant", ">=", 0.99)],
    n=(512, 16, 4096),
)
def _poincare_eigenvalue(rng, n):
    ev = theorems.dirichlet_eigenvalue(n)
    gap = abs(ev - math.pi**2) / math.pi**2
    [(members, _)] = _w0_corpus(rng, [n // 2])
    worst = math.inf
    for u in members:
        rep = theorems.poincare_check(u)
        worst = min(worst, rep.details["ratio"])
    values = {"eigenvalue_rel_gap": gap, "min_ratio_over_constant": worst / math.pi}
    return values, {"eigenvalue": ev, "n": n, "min_ratio": worst}


@_entry(
    "Zero-trace characterizations: vanishing trace, separating functional "
    "pairings, and the scalar pointwise norm agree",
    "On 10 members and 10 non-members the three verdicts agree 20/20 and "
    "member boundary norms decay at order >= 1.9.",
    [("verdict_agreement", ">=", MEASURED), ("boundary_decay_order", ">=", 1.9)],
    ladder=((64, 128, 256), 4, 512),
)
def _w0_equivalences(rng, ladder):
    # every level gives the members' boundary norms; the three verdicts are
    # compared on the top level only
    member_boundary = []
    for members, non_members in _w0_corpus(rng, ladder):
        direct = [theorems.w0_membership(u) for u in members]
        level_norm = 0.0
        for rep in direct:
            level_norm = max(level_norm, rep.rows[0][1])
        member_boundary.append(level_norm)
    direct += [theorems.w0_membership(u) for u in non_members]
    agree, total = 0, len(direct)
    for i, (u, rep) in enumerate(zip(members + non_members, direct)):
        expect = i < len(members)
        weak = theorems.weak_w0_check(u).passed
        scalar = theorems.w0_membership(pointwise_norm_function(u)).passed
        agree += int(rep.passed == expect and weak == expect and scalar == expect)
    values = {"verdict_agreement": (agree, total),
              "boundary_decay_order": _fit_order(ladder, member_boundary)}
    return values, {"ladder": list(ladder), "member_boundary_norms": member_boundary}


def seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


@_entry(
    "Morrey embedding in one dimension: Holder-1/2 seminorm controlled by "
    "the W^{1,2} norm",
    "holder_beta(u, 1/2) <= |u|_W for all corpus members; the square-root "
    "profile attains its sharp Holder constant within 5%.",
    [("worst_ratio", "<=", 1.0), ("sqrt_profile_constant_gap", "<=", 0.05)],
    n=(512, 256, 2048),
)
def _morrey_d1(rng, n):
    bps = [bp for bp in corpus_blueprints(rng) if bp.d == 1][:12]
    worst = 0.0
    for bp in bps:
        u = bp.realize(n)
        beta = holder_beta(u, 0.5, max_nodes=1024, seed=seed_of(rng))
        wn = w_norm(u)
        worst = max(worst, beta / wn if wn else 0.0)
    dom, grid, t = _interval(n)
    x0 = np.array([0.6, 0.8])
    root = GridFunction(
        dom, grid, SpaceDescriptor("Hilbert", 2), np.sqrt(t)[:, None] * x0
    )
    beta_root = holder_beta(root, 0.5)
    values = {"worst_ratio": worst, "sqrt_profile_constant_gap": abs(beta_root - 1.0)}
    return values, {"n": n, "beta_sqrt": beta_root}


@_entry(
    "Aubin-Lions compactness: W- and Y-bounded families have stable "
    "covering numbers",
    "A certified family keeps N(eps) within 2x the coarsest level for "
    "eps in {0.05, 0.1, 0.2}.",
    [("max_count_growth", "<=", lambda: theorems.AUBIN_LIONS_GROWTH_CAP)],
    members=(30, 4, 60), levels=(3, 2, 4),  # grid and value dimension double per level
    n=(128, 128, 128),  # the coarsest grid, pinned: only refine changes it
)
def _aubin_lions_compact(rng, members, levels, n):
    coeffs = rng.normal(size=(members, 2))

    def family(lv, scale=1.0):
        cells, m = n * 2**lv, 4 * 2**lv
        dom, grid, xi = _interval(cells)
        X = SpaceDescriptor("GridLr", m, exponent=2.0)
        s1, s2 = np.sin(np.pi * xi), np.sin(2 * np.pi * xi)

        def member(i):
            # the one nonzero column; the level keeps only s1 and s2
            vals = np.zeros((cells, m))
            vals[:, 0] = (coeffs[i, 0] * s1 + coeffs[i, 1] * s2) * math.sqrt(m) * scale
            return GridFunction(dom, grid, X, vals)

        return theorems.Built(members, member)

    # the scale of the unscaled coarsest level, taken one member at a time
    scale = 0.95 / max(map(w_norm, family(0)))
    yspaces = []
    for lv in range(levels):
        m = 4 * 2**lv
        mu = (1.0 + np.arange(m)) ** 4 / m
        yspaces.append(SpaceDescriptor("GridLr", m, exponent=2.0, weights=mu))
    fams = theorems.Built(levels, lambda lv: family(lv, scale))
    prof = theorems.aubin_lions_probe(fams, yspaces)
    details = {"counts": prof.rows, "eps": list(prof.details["eps_list"])}
    return {"max_count_growth": prof.details["max_growth"]}, details


@_entry(
    "Aubin-Lions control: dropping the W and Y bounds lets covering "
    "numbers grow",
    "Shrinking-bump families bounded only in L^2 grow N(0.1) by >= 4x "
    "from coarsest to finest level.",
    [("n_eps01_growth", ">=", 4.0)],
    members=(30, 4, 120), n=(1024, 1024, 1024),  # n pinned: only refine changes it
)
def _aubin_lions_control(rng, members, n):
    dom, grid, xi = _interval(n)
    ctr = (np.arange(members) + 0.5) / members

    def family(lv):
        width = 4.0 ** (1 - lv)
        fam = []
        for i in range(members):
            s = (xi - ctr[i]) / width
            g = _bump(s * s)
            fam.append(from_scalar(dom, grid, g / math.sqrt(np.mean(g * g))))
        return fam

    prof = theorems.aubin_lions_probe(theorems.Built(4, family), None)
    n01 = [c[1] for c in prof.rows]
    details = {"counts": prof.rows, "eps": list(prof.details["eps_list"])}
    return {"n_eps01_growth": n01[-1] / n01[0]}, details


@_entry(
    "Tensor extension of scalar operators to Hilbert-valued functions "
    "preserves the operator norm",
    "50 seeded matrices up to size 32 at p = 2: |T tensor I| = |T| within "
    "1e-8; the defining identity on elementary tensors is bit-exact.",
    [("max_norm_gap", "<=", 1e-8), ("tensor_identity_exact", *YES)],
    matrices=(50, 1, 200),
)
def _tensor_extension_norms(rng, matrices):
    worst_gap = 0.0
    for _ in range(matrices):
        size = int(rng.integers(2, 33))
        hd = int(rng.integers(1, 9))
        T = rng.normal(size=(size, size))
        (_, norm_scalar), (_, norm_tensor) = theorems.tensor_extend(
            T, hd, seed=seed_of(rng)
        ).rows
        worst_gap = max(
            worst_gap, abs(norm_tensor - norm_scalar) / max(1.0, norm_scalar)
        )
    # defining identity, bit-exact: integer T and f, power-of-two x; T x I_H
    # acts on a (node, H-coordinate) array U as T @ U
    T = rng.integers(-4, 5, size=(16, 16)).astype(np.float64)
    te = theorems.tensor_extend(T, 5, seed=seed_of(rng))
    f = rng.integers(-6, 7, size=16).astype(np.float64)
    x = np.ldexp(1.0, rng.integers(-2, 3, size=5)) * rng.choice([-1.0, 1.0], size=5)
    exact = te.passed and bool(np.array_equal(T @ np.outer(f, x), np.outer(T @ f, x)))
    return {"max_norm_gap": worst_gap, "tensor_identity_exact": exact}, {"matrices": matrices}


WITNESS_ROWS = [("verdict_confirms", *YES), ("worst_ratio_gap", "<=", MEASURED)]


def _witness(w, **values):
    """A witness builder's values: its verdict, its worst ratio gap against
    its band, then ``values``; and its side evidence, without its prose and
    its band."""
    band = w.details["band"]
    gap = max(abs(r - 1.0) for *_, r in w.rows) if w.rows else 0.0
    values = {"verdict_confirms": w.passed,
              "worst_ratio_gap": (gap, max(band[1] - 1.0, 1.0 - band[0])), **values}
    notes = {k: v for k, v in w.details.items() if k not in ("interpretation", "band")}
    return values, {"notes": notes}


@_entry(
    "Moving indicator 1_(0,t) is Lipschitz into L^r but nowhere "
    "differentiable: quotients blow up like h^(1/r - 1)",
    "Measured slopes within 0.05 of 1/r - 1 for r in {2, 4, inf}; all "
    "verdicts CONFIRMS_FAILURE; scalar pairings stay Lipschitz.",
    [row for tag in ("2", "4", "inf")
     for row in ((f"slope_gap_r{tag}", "<=", 0.05), (f"confirms_r{tag}", *YES))],
    n=(256, 64, 512),
)
def _witness_indicator_path(rng, n):
    values, details = {}, {}
    for r in (2.0, 4.0, math.inf):
        w = counterexamples.indicator_path_witness(r=r, n=n)
        tag = "inf" if math.isinf(r) else f"{r:g}"
        expected = -1.0 if math.isinf(r) else 1.0 / r - 1.0
        slope = w.details["criterion_slope"]
        values[f"slope_gap_r{tag}"] = abs(slope - expected)
        values[f"confirms_r{tag}"] = w.passed
        details[f"r{tag}"] = {"slope": slope, "verdict": w.verdict}
    return values, details


@_entry(
    "Lipschitz path (sin(nt)/n)_n into the null sequences has no "
    "derivative: the candidate (cos(nt))_n never decays",
    "Tail sups stay >= 0.99 up to N = 10^4 while every coordinate and "
    "every summable pairing is smooth.",
    [*WITNESS_ROWS, ("min_tail_sup", ">=", 0.99), ("path_lipschitz", "<=", 1.0 + 1e-6)],
)
def _witness_c0_sine(rng):
    w = counterexamples.c0_sine_witness()
    return _witness(w, min_tail_sup=min(m for _, m, *_ in w.rows),
                    path_lipschitz=w.details["path_lipschitz_constant"])


@_entry(
    "Positive part of a C^1 path into C(K) is not differentiable: the "
    "sup norm is not order continuous",
    "Quotient distance from the candidate -1_(r>t) stays >= 0.98 at "
    "h = 1e-3; the L^2 contrast obeys the lattice rule within 5%.",
    [*WITNESS_ROWS, ("distance_at_finest", ">=", 0.98), ("l2_contrast_error", "<=", 0.05),
     ("sup_norm_rejected", *YES)],
)
def _witness_ck_pospart(rng):
    w = counterexamples.ck_pospart_witness()
    return _witness(w, distance_at_finest=w.details["distance_at_finest"],
                    l2_contrast_error=w.details["l2_contrast_error"],
                    sup_norm_rejected=w.details["sup_norm_raises_order_continuity"])


@_entry(
    "Lipschitz maps compose with Sobolev paths: |D_j F(u)| <= L |D_j u|",
    "Composition with the norm map and a linear contraction keeps the "
    "difference-quotient excess below the floating tolerance.",
    [("norm_map_excess", "<=", MEASURED), ("linear_excess", "<=", MEASURED)],
    n=(256, 4, 4096),
)
def _lipschitz_composition(rng, n):
    bp = next(b for b in corpus_blueprints(rng) if b.space.kind == "Hilbert" and b.d == 1)
    u = bp.realize(n)
    F = norm_lipschitz_map(u.space)
    _, rep = compose_lipschitz(F, u, rng=np.random.default_rng(seed_of(rng)))
    values = {"norm_map_excess": (dict(rep.rows)["max_excess"], rep.details["tolerance"])}
    # a generic linear contraction between different spaces
    A = rng.normal(size=(2, u.space.dim))
    A /= np.linalg.norm(A, 2) * 1.25
    lin = calculus.LipschitzMap(
        rule=lambda X: X @ A.T, source=u.space, target=SpaceDescriptor("Hilbert", 2),
        L=0.8, name="contraction",
    )
    _, rep2 = compose_lipschitz(lin, u, rng=np.random.default_rng(seed_of(rng)))
    values["linear_excess"] = (dict(rep2.rows)["max_excess"], rep2.details["tolerance"])
    return values, {"n": n}


@_entry(
    "One-sided Gateaux chain rule: pairing fields agree with finite "
    "differences where the one-sided derivatives coincide",
    "Plus/minus fields of the norm map agree with the composed finite "
    "difference at order >= 0.9 with negligible one-sided gap.",
    [("fd_agreement_order", ">=", 0.9), ("max_pm_gap", "<=", 1e-8)],
    ladder=((64, 128, 256), 4, 512),
)
def _gateaux_chain_agreement(rng, ladder):
    bp = next(b for b in corpus_blueprints(rng) if b.space.kind == "Hilbert" and b.d == 1)
    errs, gaps = [], []
    for n in ladder:
        u = bp.realize(n)
        F = norm_lipschitz_map(u.space)
        ch = gateaux_chain_field(F, u)
        dirs = ch.report.details["directions"][0]
        errs.append(max(dirs["err_plus"], dirs["err_minus"]))
        gaps.append(dirs["pm_gap_lp"])
    values = {"fd_agreement_order": _fit_order(ladder, errs), "max_pm_gap": max(gaps)}
    return values, {"ladder": list(ladder), "errors": errs}


@_entry(
    "Vector-valued embedding constants never exceed the scalar ones",
    "The L^4-vs-W^{1,2} ratio of every corpus member is bounded by the "
    "empirical scalar constant on a probe corpus.",
    [("max_ratio_of_ratios", "<=", 1.0 + 1e-6)],
    n=(256, 4, 4096),
)
def _embedding_constants(rng, n):
    bps = [bp for bp in corpus_blueprints(rng) if bp.d == 1][:10]
    worst = 0.0
    for bp in bps:
        u = bp.realize(n)
        rep = theorems.embedding_check(u, seed=seed_of(rng))
        worst = max(worst, rep.details["ratio_of_ratios"])
        if not rep.passed:
            worst = math.inf
    return {"max_ratio_of_ratios": worst}, {"n": n, "samples": len(bps)}


@_entry(
    "Uniform convolution approximation: mollification error decays like "
    "C/n uniformly over shift-bounded families",
    "Family sup errors are monotone, sit below the criterion-derived "
    "bound, and fit a decay order >= 0.9.",
    [("uniform_bound_ok", *YES), ("sup_error_monotone", *YES), ("decay_order", ">=", 0.9)],
    n=(256, 64, 2048),
)
def _mollifier_uniformity(rng, n):
    bps = [bp for bp in corpus_blueprints(rng) if bp.d == 1][:3]
    fam = [bp.realize(n) for bp in bps]
    rep = theorems.mollifier_family_check(fam)
    values = {"uniform_bound_ok": rep.details["bound_ok"],
              "sup_error_monotone": rep.details["monotone_ok"],
              "decay_order": rep.details["fitted_slope"]}
    return values, {"table": rep.rows, "c_family": rep.details["c_family"]}


@_entry(
    "Reflection extension: restriction is exact and the W-norm grows by "
    "at most 3^d",
    "Even reflection across every face restricts back bit-exactly with "
    "controlled norm growth.",
    [("restriction_exact", *YES), ("w_growth_vs_bound", "<=", 1.0)],
    n=(128, 4, 4096),
)
def _extension_reflection(rng, n):
    bps = corpus_blueprints(rng)[:6]
    worst = 0.0
    all_exact = True
    for bp in bps:
        u = bp.realize(n if bp.d == 1 else min(n, GRID_2D))
        pad = min(max(2, n // 8), min(u.grid.n))
        rep = theorems.reflection_extension_report(u, pad=pad)
        worst = max(worst, dict(rep.rows)["w_norm_ratio"] / rep.details["bound"])
        all_exact &= rep.details["restriction_exact"]
    return {"restriction_exact": all_exact, "w_growth_vs_bound": worst}, {"n": n}


@_entry(
    "Stampacchia-type locality: where |u| vanishes against w, so does "
    "every D_j u",
    "A path vanishing on the support of w has derivative vanishing there "
    "up to the finite-difference tolerance.",
    [("derivative_overlap", "<=", MEASURED)],
    n=(256, 4, 4096),
)
def _stampacchia_disjointness(rng, n):
    dom, grid, t = _interval(n)
    space = SpaceDescriptor("GridLr", 4, exponent=2.0)
    vals = np.zeros((n, 4))
    vals[:, 0] = np.sin(np.pi * t) * 1.5
    s = (t - 0.4) / 0.3
    vals[:, 1] = _bump(s * s)
    u = GridFunction(dom, grid, space, vals)
    w = np.array([0.0, 0.0, 1.0, 2.0])
    rep = stampacchia_check(u, w)
    overlap = dict(rep.rows)["derivative_max"], rep.details["tolerance"]
    return {"derivative_overlap": overlap}, {"n": n}


@_entry(
    "Quotient rule for u / |u| against a capped cutoff",
    "The assembled formula field matches the finite difference of the "
    "normalized path at order >= 0.9 away from the zero set.",
    [("fitted_order", ">=", 0.9)],
    ladder=((64, 128, 256), 8, 512),
)
def _quotient_rule(rng, ladder):
    space = SpaceDescriptor("Hilbert", 2)
    errs = []
    for n in ladder:
        dom, grid, t = _interval(n)
        u = GridFunction(
            dom, grid, space, np.stack([2.0 + np.sin(t), np.cos(t)], axis=-1)
        )
        s = (t - 0.5) / 0.4
        phi = from_scalar(dom, grid, _bump(s * s))
        _, res = quotient_rule_field(u, phi)
        errs.append(res.report.details["l1_err_total"])
    return {"fitted_order": _fit_order(ladder, errs)}, {"ladder": list(ladder), "errors": errs}


@_entry(
    "Product rule for scalar multipliers: D_j(psi u) = psi D_j u + "
    "(D_j psi) u",
    "Central differences satisfy the product rule at second order for "
    "smooth data.",
    [("fitted_order", ">=", 1.8)],
    ladder=((64, 128, 256), 16, 512),
)
def _product_rule(rng, ladder):
    bp = next(b for b in corpus_blueprints(rng) if b.space.kind == "Hilbert" and b.d == 1)
    errs = []
    for n in ladder:
        u = bp.realize(n)
        t = grid_centers(u.domain, u.grid)[..., 0]
        psi = from_scalar(u.domain, u.grid, 1.0 + 0.5 * np.sin(2 * np.pi * t))
        rep = product_rule_check(u, psi)
        errs.append(rep.details["err_max"])
    return {"fitted_order": _fit_order(ladder, errs)}, {"ladder": list(ladder), "errors": errs}


@_entry(
    "Continuity of the norm map on W^{1,p}: vector convergence forces "
    "scalar convergence of pointwise norms",
    "Scalar W-distances track vector W-distances at order >= 0.9 along a "
    "convergent sequence bounded away from zero.",
    [("scalar_tracking_order", ">=", lambda: theorems.NORM_MAP_ORDER_MIN)],
    n=(128, 4, 4096),
)
def _norm_map_continuity(rng, n):
    dom, grid, t = _interval(n)
    space = SpaceDescriptor("Hilbert", 3)
    base = np.stack(
        [2.0 + np.sin(np.pi * t), t * (1 - t), np.cos(2 * np.pi * t)], axis=-1
    )
    u = GridFunction(dom, grid, space, base)
    pert = np.stack([np.sin(2 * np.pi * t), np.cos(np.pi * t), t], axis=-1)
    seq = [GridFunction(dom, grid, space, base + pert / 2.0**k) for k in range(1, 7)]
    rep = theorems.norm_map_continuity_check(seq, u)
    return {"scalar_tracking_order": rep.details["fitted_slope"]}, {"pairs": rep.rows}


def entry_params(name: str, refine: int, params: dict | None = None) -> dict:
    """The keywords entry ``name`` runs with: ``params`` with the declared
    defaults filled in and cast, ladders sorted, and every grid size
    refined by the grid rule of ``_entry``; ``refine`` is an integer >= 0.
    What the config check would reject raises one ``ContractError`` with
    its messages."""
    refine = check_count("refine", refine, least=0)
    params = {} if params is None else params
    errors = value_errors(refine, SPEC_FIELDS["refine"], "refine")
    if errors := errors + field_errors(params, "params", CATALOG[name].params):
        raise ContractError(f"{name}: " + "; ".join(errors))
    kwargs = dict(params)
    for key, (default, _, high) in CATALOG[name].params.items():
        value = kwargs.get(key, default)  # JSON lets 256.0 stand for 256
        if isinstance(default, tuple):
            kwargs[key] = _ladder(tuple(sorted(map(int, value))), refine, high)
        elif key == "n":
            kwargs[key] = int(value) * 2**refine
        else:
            kwargs[key] = type(default)(value)
    return kwargs


def run_entry(name: str, seed: int, refine: int = 0, params: dict | None = None):
    return _run_checked(name, seed, entry_params(name, refine, params))


def _run_checked(name: str, seed: int, kwargs: dict):
    """Run entry ``name``'s builder on ``kwargs`` as ``entry_params`` made
    them, and ``compare`` its values as its rows declare them.  Unless the
    values are for exactly the declared metrics, in their order, it raises
    ``ContractError`` naming the entry and both lists of metrics."""
    entry = CATALOG[name]
    values, details = entry.builder(entry_rng(name, seed), **kwargs)
    got, declared = list(values), [metric for metric, *_ in entry.rows]
    if got != declared:
        raise ContractError(f"{name}: metrics {got} are not the declared {declared}")
    rows = []
    for metric, direction, threshold in entry.rows:
        value, threshold = values[metric] if threshold is MEASURED else (values[metric], threshold)
        rows.append(compare(metric, value, direction, threshold))
    return rows, to_jsonable(details)
