"""Named verification entries behind the command line.

Every entry bundles one quantitative claim into a builder that returns
threshold rows: (metric, value, threshold, pass).  Entries are pure
functions of (seed, refine, params), so a fixed seed reproduces every row
bit-for-bit.  The anchor string names the mathematical statement the entry
exercises; ``describe`` prints it.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import calculus, counterexamples, theorems
from .banach import SpaceDescriptor
from .calculus import (
    compose_lipschitz,
    dq_criterion,
    gateaux_chain_field,
    holder_beta,
    norm_derivative_field,
    norm_lipschitz_map,
    pos_derivative_field,
    abs_derivative_field,
    product_rule_check,
    quotient_rule_field,
    stampacchia_check,
)
from .errors import OrderContinuityError
from .gridfn import (
    GridFunction,
    GridSpec,
    _bump,
    bochner_norm,
    finite_difference,
    from_scalar,
    grid_centers,
    pointwise_norm_function,
    unit_box,
    w_norm,
)
from .reports import to_jsonable


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
    builder: Callable[[np.random.Generator, int, dict], tuple[list[Row], dict]]


def entry_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def _row(metric, value, threshold, ok=None, mode="le") -> Row:
    value = float(value)
    threshold = float(threshold)
    if ok is None:
        ok = value <= threshold if mode == "le" else value >= threshold
    return Row(metric, value, threshold, bool(ok))


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

    def realize(self, n: int) -> GridFunction:
        dom = unit_box(self.d)
        grid = GridSpec((n,) * self.d)
        axes = grid.axes(dom)
        dim, K = self.amp_sin.shape[:2]
        vals = np.broadcast_to(self.const, grid.n + (dim,)).copy()
        for k in range(K):
            for j in range(self.d):
                # Each term depends on one coordinate only: evaluate it on the
                # axis and broadcast along axis j.  The two in-place additions
                # keep the order (vals + s*a) + c*b of the full-mesh formula.
                shape = [1] * (self.d + 1)
                shape[j] = n
                arg = (k + 1) * np.pi * axes[j]
                s = np.sin(arg).reshape(shape)
                c = np.cos(arg).reshape(shape)
                vals += s * self.amp_sin[:, k, j]
                vals += c * self.amp_cos[:, k, j]
        return GridFunction(dom, grid, self.space, vals)


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


def circle_sample(n: int = 128) -> GridFunction:
    """Unit-speed circle scaled to radius 1/(2pi): constant pointwise norm
    with unit-norm derivative — the strictness witness for the norm
    estimate."""
    dom = unit_box(1)
    grid = GridSpec((n,))
    t = grid_centers(dom, grid)[..., 0]
    vals = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1) / (
        2 * np.pi
    )
    return GridFunction(dom, grid, SpaceDescriptor("Hilbert", 2), vals)


def _ladder(base: tuple[int, ...], refine: int, cap: int = 512) -> tuple[int, ...]:
    return tuple(min(n * 2**refine, cap) for n in base)


def _fit_order(ns, errs) -> float:
    hs = [1.0 / n for n in ns]
    pos = [(h, e) for h, e in zip(hs, errs) if e > 0.0]
    if len(pos) < 2:
        return math.inf
    from .reports import fit_loglog

    slope, _ = fit_loglog([h for h, _ in pos], [e for _, e in pos])
    return slope


# ---------------------------------------------------------------------------
# entry builders
# ---------------------------------------------------------------------------


def _build_norm_chain_rule(rng, refine, params):
    ladder = _ladder(params.get("ladder", (32, 64, 128, 256)), refine)
    bps = corpus_blueprints(rng)
    errs = []
    for n in ladder:
        total = 0.0
        for bp in bps:
            nd = norm_derivative_field(bp.realize(n))
            total += nd.report.details["l1_err_total"]
        errs.append(total)
    order = _fit_order(ladder, errs)
    rows = [
        _row("fitted_order", order, 0.9, mode="ge"),
        _row("corpus_size", len(bps), 30, mode="ge"),
        _row("final_l1_err", errs[-1], errs[0], ok=errs[-1] < errs[0]),
    ]
    return rows, {"ladder": list(ladder), "l1_errors": errs}


def _build_norm_gradient_bound(rng, refine, params):
    n = params.get("n", 128) * 2**refine
    bps = corpus_blueprints(rng)
    worst = 0.0
    for bp in bps:
        u = bp.realize(n if bp.d == 1 else min(n, 64))
        nd = norm_derivative_field(u)
        g = pointwise_norm_function(u)
        dg = finite_difference(g)
        du = finite_difference(u)
        from .gridfn import interior_mask
        from . import banach as _b

        inner = interior_mask(u.grid)
        for j in range(u.domain.d):
            lhs = np.abs(dg[j].values[..., 0])
            rhs = np.asarray(_b.norm(u.space, du[j].values))
            ok = inner & ~nd.flags[j]
            if not np.any(ok):
                continue
            margin = np.max((lhs - rhs)[ok]) / (1.0 + float(np.max(rhs[ok])))
            worst = max(worst, float(margin))
    circ = circle_sample(n)
    dgc = finite_difference(pointwise_norm_function(circ))
    lhs_max = float(np.max(np.abs(dgc[0].values)))
    from . import banach as _b

    rhs_typ = float(
        np.median(np.asarray(_b.norm(circ.space, finite_difference(circ)[0].values)))
    )
    rows = [
        _row("nodewise_margin_rel", worst, 1e-12),
        _row("circle_lhs_max", lhs_max, 1e-10),
        _row("circle_rhs_gap", abs(rhs_typ - 1.0), 0.1),
    ]
    return rows, {"n": n, "circle_rhs": rhs_typ}


def _build_lattice_chain_rules(rng, refine, params):
    ladder = _ladder(params.get("ladder", (32, 64, 128, 256)), refine)
    bps = [bp for bp in corpus_blueprints(rng) if bp.space.order_continuous
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
    sup_bp = next(bp for bp in corpus_blueprints(rng) if bp.space.kind == "SampledSup")
    try:
        pos_derivative_field(sup_bp.realize(64))
        sup_raised = False
    except OrderContinuityError:
        sup_raised = True
    rows = [
        _row("abs_fitted_order", _fit_order(ladder, abs_errs), 0.9, mode="ge"),
        _row("pos_fitted_order", _fit_order(ladder, pos_errs), 0.9, mode="ge"),
        _row("pos_half_identity_exact", 1.0 if exact else 0.0, 1.0, mode="ge"),
        _row("sup_norm_rejected", 1.0 if sup_raised else 0.0, 1.0, mode="ge"),
    ]
    return rows, {"ladder": list(ladder), "abs_errors": abs_errs, "pos_errors": pos_errs}


def _build_dq_criterion(rng, refine, params):
    ladder = _ladder(params.get("ladder", (64, 128, 256, 512)), refine)
    p = params.get("p", 2.0)
    # cosine-only blends: the derivative vanishes at the boundary, so the
    # criterion's shrinking-window deficit is negligible and the measured
    # decay isolates the quotient-vs-derivative convergence itself
    import dataclasses

    bps = [
        dataclasses.replace(bp, amp_sin=np.zeros_like(bp.amp_sin))
        for bp in corpus_blueprints(rng)
        if bp.d == 1
    ][:12]
    errs, bounded = [], True
    for n in ladder:
        total = 0.0
        for bp in bps:
            u = bp.realize(n)
            rep = dq_criterion(u, p, steps_list=(1, 2, 4, 8))
            bounded &= not rep.divergent
            du = finite_difference(u)
            ref = max(bochner_norm(du[j], p) for j in range(u.domain.d))
            total += abs(rep.c_est - ref)
        errs.append(total)
    rows = [
        _row("c_est_fitted_order", _fit_order(ladder, errs), 1.0, mode="ge"),
        _row("all_bounded", 1.0 if bounded else 0.0, 1.0, mode="ge"),
    ]
    return rows, {"ladder": list(ladder), "c_est_errors": errs}


def _build_dq_indicator(rng, refine, params):
    n = params.get("n", 256) * 2**refine
    w = counterexamples.indicator_path_witness(r=2.0, n=n)
    slope = w.notes["criterion_slope"]
    w1 = counterexamples.indicator_path_witness(r=1.0, n=n)
    rows = [
        _row("slope_gap_r2", abs(slope + 0.5), 0.05),
        _row("divergent_r2", 1.0 if w.notes["criterion_verdict"] == "DIVERGENT" else 0.0,
             1.0, mode="ge"),
        _row("bounded_r1", 1.0 if w1.notes["criterion_verdict"] == "BOUNDED" else 0.0,
             1.0, mode="ge"),
        _row("pairing_bounded", 1.0 if w.notes["pairing_verdict"] == "BOUNDED" else 0.0,
             1.0, mode="ge"),
    ]
    return rows, {"slope": slope, "verdict": w.verdict}


def _w0_corpus(rng, n: int):
    """10 zero-trace members and 10 members with live boundary values."""
    dom = unit_box(1)
    grid = GridSpec((n,))
    t = grid_centers(dom, grid)[..., 0]
    space = SpaceDescriptor("Hilbert", 3)
    members, non_members = [], []
    env = np.sin(np.pi * t)
    for i in range(10):
        a = rng.normal(scale=1.0, size=3)
        b = rng.normal(scale=0.5, size=3)
        body = a + b * np.cos(np.pi * t)[:, None] * 0.5
        members.append(GridFunction(dom, grid, space, env[:, None] * body))
        c = rng.normal(scale=1.0, size=3)
        c[i % 3] += 2.0  # keep the boundary value well away from zero
        wiggle = 0.3 * np.sin(2 * np.pi * t)[:, None] * rng.normal(size=3)
        non_members.append(
            GridFunction(dom, grid, space, np.broadcast_to(c, (n, 3)) + wiggle)
        )
    return members, non_members


def _build_poincare(rng, refine, params):
    n = params.get("n", 512)
    ev = theorems.dirichlet_eigenvalue(n)
    gap = abs(ev - math.pi**2) / math.pi**2
    members, _ = _w0_corpus(rng, 256 * 2**refine)
    worst = math.inf
    for u in members:
        rep = theorems.poincare_check(u, 2.0, 0)
        worst = min(worst, rep.details["ratio"])
    rows = [
        _row("eigenvalue_rel_gap", gap, 0.01),
        _row("min_ratio_over_constant", worst / math.pi, 0.99, mode="ge"),
    ]
    return rows, {"eigenvalue": ev, "n": n, "min_ratio": worst}


def _build_w0_equivalences(rng, refine, params):
    ladder = _ladder(params.get("ladder", (64, 128, 256)), refine)
    agree = 0
    total = 0
    member_boundary = []
    F = np.eye(3)
    for n in ladder:
        rng_level = np.random.default_rng([seed_of(rng), n])
        members, non_members = _w0_corpus(rng_level, n)
        level_norm = 0.0
        for u, expect in [(m, True) for m in members] + [
            (s, False) for s in non_members
        ]:
            direct, rep = theorems.w0_membership(u)
            weak = theorems.weak_w0_check(u, F).verdict == "MEMBER"
            scalar, _ = theorems.w0_membership(pointwise_norm_function(u))
            if n == ladder[-1]:
                total += 1
                agree += int(direct == expect and weak == expect and scalar == expect)
            if expect:
                level_norm = max(level_norm, rep.table[0][1])
        member_boundary.append(level_norm)
    order = _fit_order(ladder, member_boundary)
    rows = [
        _row("verdict_agreement", agree, total, mode="ge"),
        _row("boundary_decay_order", order, 1.9, mode="ge"),
    ]
    return rows, {"ladder": list(ladder), "member_boundary_norms": member_boundary}


def seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _build_morrey(rng, refine, params):
    n = params.get("n", 512) * 2**refine
    bps = [bp for bp in corpus_blueprints(rng) if bp.d == 1][:12]
    ok = True
    worst = 0.0
    for bp in bps:
        u = bp.realize(n)
        beta = holder_beta(u, 0.5, max_nodes=1024, seed=seed_of(rng))
        wn = w_norm(u, 2.0)
        worst = max(worst, beta / wn if wn else 0.0)
        ok &= beta <= wn * (1.0 + 1e-9)
    dom = unit_box(1)
    grid = GridSpec((n,))
    t = grid_centers(dom, grid)[..., 0]
    x0 = np.array([0.6, 0.8])
    root = GridFunction(
        dom, grid, SpaceDescriptor("Hilbert", 2), np.sqrt(t)[:, None] * x0
    )
    beta_root = holder_beta(root, 0.5)
    rows = [
        _row("seminorm_below_w", 1.0 if ok else 0.0, 1.0, mode="ge"),
        _row("worst_ratio", worst, 1.0),
        _row("sqrt_profile_constant_gap", abs(beta_root - 1.0), 0.05),
    ]
    return rows, {"n": n, "beta_sqrt": beta_root}


def _build_aubin_lions_compact(rng, refine, params):
    members = params.get("members", 30)
    levels = params.get("levels", 3)
    dom = unit_box(1)
    coeffs = rng.normal(size=(members, 2))
    fams, yspaces = [], []
    scale = None
    for lv in range(levels):
        n = 128 * 2 ** (lv + refine)
        m = 4 * 2**lv
        grid = GridSpec((n,))
        xi = grid_centers(dom, grid)[..., 0]
        X = SpaceDescriptor("GridLr", m, exponent=2.0)
        mu = (1.0 + np.arange(m)) ** 4 / m
        Y = SpaceDescriptor("GridLr", m, exponent=2.0, weights=mu)
        fam = []
        for i in range(members):
            g = coeffs[i, 0] * np.sin(np.pi * xi) + coeffs[i, 1] * np.sin(
                2 * np.pi * xi
            )
            vals = np.zeros((n, m))
            vals[:, 0] = g * math.sqrt(m)
            fam.append(GridFunction(dom, grid, X, vals))
        if scale is None:
            scale = 0.95 / max(w_norm(f, 2.0) for f in fam)
        fams.append([GridFunction(dom, grid, X, f.values * scale) for f in fam])
        yspaces.append(Y)
    prof = theorems.aubin_lions_probe(fams, yspaces, p=2.0, certify=True)
    base = prof.counts[0]
    worst = max(
        max(c[k] for c in prof.counts) / base[k] for k in range(len(prof.eps_list))
    )
    rows = [
        _row("max_count_growth", worst, 2.0),
        _row("stable_verdict", 1.0 if prof.stable else 0.0, 1.0, mode="ge"),
    ]
    return rows, {"counts": prof.counts, "eps": list(prof.eps_list)}


def _build_aubin_lions_control(rng, refine, params):
    members = params.get("members", 30)
    dom = unit_box(1)
    n = 1024 * 2**refine
    grid = GridSpec((n,))
    xi = grid_centers(dom, grid)[..., 0]
    ctr = (np.arange(members) + 0.5) / members
    fams = []
    for lv in range(4):
        width = 4.0 ** (1 - lv)
        fam = []
        for i in range(members):
            s = (xi - ctr[i]) / width
            g = _bump(s * s)
            fam.append(from_scalar(dom, grid, g / math.sqrt(np.mean(g * g))))
        fams.append(fam)
    prof = theorems.aubin_lions_probe(fams, None, p=2.0, certify=False)
    n01 = [c[1] for c in prof.counts]
    growth = n01[-1] / n01[0]
    rows = [
        _row("n_eps01_growth", growth, 4.0, mode="ge"),
        _row("growing_verdict", 1.0 if prof.verdict == "GROWING" else 0.0, 1.0,
             mode="ge"),
    ]
    return rows, {"counts": prof.counts, "eps": list(prof.eps_list)}


def _build_tensor_extension(rng, refine, params):
    count = params.get("matrices", 50)
    worst_gap = 0.0
    for _ in range(count):
        size = int(rng.integers(2, 33))
        hd = int(rng.integers(1, 9))
        T = rng.normal(size=(size, size))
        te = theorems.tensor_extend(T, hd, p=2.0, seed=seed_of(rng))
        worst_gap = max(
            worst_gap,
            abs(te.norm_tensor - te.norm_scalar) / max(1.0, te.norm_scalar),
        )
    # defining identity, bit-exact: integer T and f, power-of-two x
    T = rng.integers(-4, 5, size=(16, 16)).astype(np.float64)
    te = theorems.tensor_extend(T, 5, p=2.0, seed=seed_of(rng))
    f = rng.integers(-6, 7, size=16).astype(np.float64)
    x = np.ldexp(1.0, rng.integers(-2, 3, size=5)) * rng.choice([-1.0, 1.0], size=5)
    exact = bool(np.array_equal(te.apply(np.outer(f, x)), np.outer(T @ f, x)))
    rows = [
        _row("max_norm_gap", worst_gap, 1e-8),
        _row("tensor_identity_exact", 1.0 if exact else 0.0, 1.0, mode="ge"),
    ]
    return rows, {"matrices": count}


def _witness_rows(w) -> list[Row]:
    rows = [
        _row("verdict_confirms", 1.0 if w.confirms else 0.0, 1.0, mode="ge"),
        _row(
            "worst_ratio_gap",
            max(abs(r - 1.0) for *_, r in w.rows) if w.rows else 0.0,
            max(w.band[1] - 1.0, 1.0 - w.band[0]),
        ),
    ]
    return rows


def _build_witness_indicator(rng, refine, params):
    n = params.get("n", 256) * 2**refine
    details = {}
    rows = []
    for r in (2.0, 4.0, math.inf):
        w = counterexamples.indicator_path_witness(r=r, n=n)
        tag = "inf" if math.isinf(r) else f"{r:g}"
        expected = -1.0 if math.isinf(r) else 1.0 / r - 1.0
        rows.append(
            _row(f"slope_gap_r{tag}", abs(w.notes["criterion_slope"] - expected), 0.05)
        )
        rows.append(
            _row(f"confirms_r{tag}", 1.0 if w.confirms else 0.0, 1.0, mode="ge")
        )
        details[f"r{tag}"] = {"slope": w.notes["criterion_slope"], "verdict": w.verdict}
    return rows, details


def _build_witness_c0(rng, refine, params):
    w = counterexamples.c0_sine_witness()
    rows = _witness_rows(w)
    rows.append(_row("min_tail_sup", min(m for _, m, *_ in w.rows), 0.99, mode="ge"))
    rows.append(
        _row("path_lipschitz", w.notes["path_lipschitz_constant"], 1.0 + 1e-6)
    )
    return rows, {"notes": {k: v for k, v in w.notes.items() if k != "interpretation"}}


def _build_witness_ck(rng, refine, params):
    w = counterexamples.ck_pospart_witness()
    rows = _witness_rows(w)
    rows.append(_row("distance_at_finest", w.notes["distance_at_finest"], 0.98,
                     mode="ge"))
    rows.append(_row("l2_contrast_error", w.notes["l2_contrast_error"], 0.05))
    rows.append(
        _row(
            "sup_norm_rejected",
            1.0 if w.notes["sup_norm_raises_order_continuity"] else 0.0,
            1.0,
            mode="ge",
        )
    )
    return rows, {"notes": {k: v for k, v in w.notes.items() if k != "interpretation"}}


def _build_lipschitz_composition(rng, refine, params):
    n = params.get("n", 256) * 2**refine
    bp = corpus_blueprints(rng)[0]
    u = bp.realize(n)
    F = norm_lipschitz_map(u.space)
    _, rep = compose_lipschitz(F, u, rng=np.random.default_rng(seed_of(rng)))
    rows = [
        _row("norm_map_excess", dict(rep.table)["max_excess"], rep.details["tolerance"]),
        _row("pass_verdict", 1.0 if rep.passed else 0.0, 1.0, mode="ge"),
    ]
    # a generic linear contraction between different spaces
    A = rng.normal(size=(2, u.space.dim))
    A /= np.linalg.norm(A, 2) * 1.25
    target = SpaceDescriptor("Hilbert", 2)
    if u.space.kind == "Hilbert":
        L = 0.8
        lin = calculus.LipschitzMap(
            rule=lambda x: A @ x,
            source=u.space,
            target=target,
            L=L,
            rule_batch=lambda X: X @ A.T,
            name="contraction",
        )
        _, rep2 = compose_lipschitz(lin, u, rng=np.random.default_rng(seed_of(rng)))
        rows.append(
            _row("linear_excess", dict(rep2.table)["max_excess"], rep2.details["tolerance"])
        )
    return rows, {"n": n}


def _build_gateaux_chain(rng, refine, params):
    ladder = _ladder(params.get("ladder", (64, 128, 256)), refine)
    bp = next(b for b in corpus_blueprints(rng) if b.space.kind == "Hilbert" and b.d == 1)
    errs, gaps = [], []
    for n in ladder:
        u = bp.realize(n)
        F = norm_lipschitz_map(u.space)
        ch = gateaux_chain_field(F, u)
        dirs = ch.report.details["directions"][0]
        errs.append(max(dirs["err_plus"], dirs["err_minus"]))
        gaps.append(dirs["pm_gap_lp"])
    rows = [
        _row("fd_agreement_order", _fit_order(ladder, errs), 0.9, mode="ge"),
        _row("max_pm_gap", max(gaps), 1e-8),
    ]
    return rows, {"ladder": list(ladder), "errors": errs}


def _build_embedding(rng, refine, params):
    n = params.get("n", 256) * 2**refine
    bps = [bp for bp in corpus_blueprints(rng) if bp.d == 1][:10]
    worst = 0.0
    for bp in bps:
        u = bp.realize(n)
        rep = theorems.embedding_check(u, 2.0, 4.0, seed=seed_of(rng))
        worst = max(worst, rep.details["ratio_of_ratios"])
        if not rep.passed:
            worst = math.inf
    rows = [_row("max_ratio_of_ratios", worst, 1.0 + 1e-6)]
    return rows, {"n": n, "samples": len(bps)}


def _build_mollifier(rng, refine, params):
    n = params.get("n", 256) * 2**refine
    bps = [bp for bp in corpus_blueprints(rng) if bp.d == 1][:3]
    fam = [bp.realize(n) for bp in bps]
    rep = theorems.mollifier_family_check(fam, levels=(8, 16, 32))
    rows = [
        _row("uniform_bound_ok", 1.0 if rep.details["bound_ok"] else 0.0, 1.0,
             mode="ge"),
        _row("sup_error_monotone", 1.0 if rep.details["monotone_ok"] else 0.0, 1.0,
             mode="ge"),
        _row("decay_order", rep.fitted_slope, 0.9, mode="ge"),
    ]
    return rows, {"table": rep.table, "c_family": rep.details["c_family"]}


def _build_extension(rng, refine, params):
    n = params.get("n", 128) * 2**refine
    bps = corpus_blueprints(rng)[:6]
    worst = 0.0
    all_exact = True
    for bp in bps:
        u = bp.realize(n if bp.d == 1 else min(n, 64))
        rep = theorems.reflection_extension_report(u, pad=max(2, n // 8))
        worst = max(worst, dict(rep.table)["w_norm_ratio"] / rep.details["bound"])
        all_exact &= rep.details["restriction_exact"]
    rows = [
        _row("restriction_exact", 1.0 if all_exact else 0.0, 1.0, mode="ge"),
        _row("w_growth_vs_bound", worst, 1.0),
    ]
    return rows, {"n": n}


def _build_stampacchia(rng, refine, params):
    n = params.get("n", 256) * 2**refine
    dom = unit_box(1)
    grid = GridSpec((n,))
    t = grid_centers(dom, grid)[..., 0]
    space = SpaceDescriptor("GridLr", 4, exponent=2.0)
    vals = np.zeros((n, 4))
    vals[:, 0] = np.sin(np.pi * t) * 1.5
    s = (t - 0.4) / 0.3
    vals[:, 1] = _bump(s * s)
    u = GridFunction(dom, grid, space, vals)
    w = np.array([0.0, 0.0, 1.0, 2.0])
    rep = stampacchia_check(u, w)
    rows = [
        _row("disjoint_pass", 1.0 if rep.passed else 0.0, 1.0, mode="ge"),
        _row("derivative_overlap", dict(rep.table)["derivative_max"],
             rep.details["tolerance"]),
    ]
    return rows, {"n": n}


def _build_quotient_rule(rng, refine, params):
    ladder = _ladder(params.get("ladder", (64, 128, 256)), refine)
    dom = unit_box(1)
    space = SpaceDescriptor("Hilbert", 2)
    errs = []
    for n in ladder:
        grid = GridSpec((n,))
        t = grid_centers(dom, grid)[..., 0]
        u = GridFunction(
            dom, grid, space, np.stack([2.0 + np.sin(t), np.cos(t)], axis=-1)
        )
        s = (t - 0.5) / 0.4
        phi = from_scalar(dom, grid, _bump(s * s))
        res = quotient_rule_field(u, phi)
        errs.append(res.report.details["l1_err_total"])
    rows = [_row("fitted_order", _fit_order(ladder, errs), 0.9, mode="ge")]
    return rows, {"ladder": list(ladder), "errors": errs}


def _build_product_rule(rng, refine, params):
    ladder = _ladder(params.get("ladder", (64, 128, 256)), refine)
    bp = next(b for b in corpus_blueprints(rng) if b.space.kind == "Hilbert" and b.d == 1)
    errs = []
    for n in ladder:
        u = bp.realize(n)
        t = grid_centers(u.domain, u.grid)[..., 0]
        psi = from_scalar(u.domain, u.grid, 1.0 + 0.5 * np.sin(2 * np.pi * t))
        rep = product_rule_check(u, psi)
        errs.append(rep.details["err_max"])
    rows = [_row("fitted_order", _fit_order(ladder, errs), 1.8, mode="ge")]
    return rows, {"ladder": list(ladder), "errors": errs}


def _build_norm_map_continuity(rng, refine, params):
    n = params.get("n", 128) * 2**refine
    dom = unit_box(1)
    grid = GridSpec((n,))
    t = grid_centers(dom, grid)[..., 0]
    space = SpaceDescriptor("Hilbert", 3)
    base = np.stack(
        [2.0 + np.sin(np.pi * t), t * (1 - t), np.cos(2 * np.pi * t)], axis=-1
    )
    u = GridFunction(dom, grid, space, base)
    pert = np.stack([np.sin(2 * np.pi * t), np.cos(np.pi * t), t], axis=-1)
    seq = [GridFunction(dom, grid, space, base + pert / 2.0**k) for k in range(1, 7)]
    rep = theorems.norm_map_continuity_check(seq, u)
    rows = [
        _row("scalar_tracking_order", rep.fitted_slope, 0.9, mode="ge"),
        _row("pass_verdict", 1.0 if rep.passed else 0.0, 1.0, mode="ge"),
    ]
    return rows, {"pairs": rep.table}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG: dict[str, CatalogEntry] = {}


def _register(name, anchor, summary, builder):
    CATALOG[name] = CatalogEntry(name, anchor, summary, builder)


_register(
    "norm_chain_rule",
    "Chain rule for the pointwise norm: D_j|u| equals the norming-functional "
    "pairing of D_j u",
    "Discrepancy between the one-sided pairing field and the finite "
    "difference of the pointwise norm decays under refinement over a "
    "30-sample corpus spanning every space kind.",
    _build_norm_chain_rule,
)
_register(
    "norm_gradient_bound",
    "Norm estimate |D_j (pointwise norm)| <= |D_j u| with the circle path "
    "showing strict inequality",
    "Nodewise inequality with 1e-12 relative slack on interior unflagged "
    "nodes; the constant-norm circle achieves zero left side against a "
    "unit right side.",
    _build_norm_gradient_bound,
)
_register(
    "lattice_chain_rules",
    "Lattice chain rules: D_j|u| = sign(u) D_j u and D_j u+ = 1_{u>0} D_j u "
    "under order continuity",
    "Absolute-value and positive-part fields match finite differences at "
    "order >= 0.9; pos = (abs + D)/2 bit-exactly off the zero set; the "
    "sup norm is rejected for lacking order continuity.",
    _build_lattice_chain_rules,
)
_register(
    "dq_criterion",
    "Difference Quotient Criterion: shift quotients bounded by the "
    "derivative norm, with equality in the limit",
    "For smooth corpus members the criterion constant converges to "
    "max_j |D_j u|_p at first order and the verdict stays BOUNDED.",
    _build_dq_criterion,
)
_register(
    "dq_criterion_indicator",
    "Difference Quotient Criterion divergence for the moving indicator "
    "(no Radon-Nikodym property)",
    "The indicator path into L^2 fits slope -0.5 +/- 0.05 with verdict "
    "DIVERGENT, while the L^1 variant stays BOUNDED and scalar pairings "
    "remain Lipschitz.",
    _build_dq_indicator,
)
_register(
    "poincare_eigenvalue",
    "Poincare inequality with the first Dirichlet eigenvalue as sharp "
    "constant",
    "The discrete eigenvalue at n = 512 matches pi^2 within 1%, and every "
    "zero-trace corpus member satisfies |u'| >= pi |u| (1 - 0.01).",
    _build_poincare,
)
_register(
    "w0_equivalences",
    "Zero-trace characterizations: vanishing trace, separating functional "
    "pairings, and the scalar pointwise norm agree",
    "On 10 members and 10 non-members the three verdicts agree 20/20 and "
    "member boundary norms decay at order >= 1.9.",
    _build_w0_equivalences,
)
_register(
    "morrey_d1",
    "Morrey embedding in one dimension: Holder-1/2 seminorm controlled by "
    "the W^{1,2} norm",
    "holder_beta(u, 1/2) <= |u|_W for all corpus members; the square-root "
    "profile attains its sharp Holder constant within 5%.",
    _build_morrey,
)
_register(
    "aubin_lions_compact",
    "Aubin-Lions compactness: W- and Y-bounded families have stable "
    "covering numbers",
    "A certified family keeps N(eps) within 2x the coarsest level for "
    "eps in {0.05, 0.1, 0.2}.",
    _build_aubin_lions_compact,
)
_register(
    "aubin_lions_control",
    "Aubin-Lions control: dropping the W and Y bounds lets covering "
    "numbers grow",
    "Shrinking-bump families bounded only in L^2 grow N(0.1) by >= 4x "
    "from coarsest to finest level.",
    _build_aubin_lions_control,
)
_register(
    "tensor_extension_norms",
    "Tensor extension of scalar operators to Hilbert-valued functions "
    "preserves the operator norm",
    "50 seeded matrices up to size 32 at p = 2: |T tensor I| = |T| within "
    "1e-8; the defining identity on elementary tensors is bit-exact.",
    _build_tensor_extension,
)
_register(
    "witness_indicator_path",
    "Moving indicator 1_(0,t) is Lipschitz into L^r but nowhere "
    "differentiable: quotients blow up like h^(1/r - 1)",
    "Measured slopes within 0.05 of 1/r - 1 for r in {2, 4, inf}; all "
    "verdicts CONFIRMS_FAILURE; scalar pairings stay Lipschitz.",
    _build_witness_indicator,
)
_register(
    "witness_c0_sine",
    "Lipschitz path (sin(nt)/n)_n into the null sequences has no "
    "derivative: the candidate (cos(nt))_n never decays",
    "Tail sups stay >= 0.99 up to N = 10^4 while every coordinate and "
    "every summable pairing is smooth.",
    _build_witness_c0,
)
_register(
    "witness_ck_pospart",
    "Positive part of a C^1 path into C(K) is not differentiable: the "
    "sup norm is not order continuous",
    "Quotient distance from the candidate -1_(r>t) stays >= 0.98 at "
    "h = 1e-3; the L^2 contrast obeys the lattice rule within 5%.",
    _build_witness_ck,
)
_register(
    "lipschitz_composition",
    "Lipschitz maps compose with Sobolev paths: |D_j F(u)| <= L |D_j u|",
    "Composition with the norm map and a linear contraction keeps the "
    "difference-quotient excess below the floating tolerance.",
    _build_lipschitz_composition,
)
_register(
    "gateaux_chain_agreement",
    "One-sided Gateaux chain rule: pairing fields agree with finite "
    "differences where the one-sided derivatives coincide",
    "Plus/minus fields of the norm map agree with the composed finite "
    "difference at order >= 0.9 with negligible one-sided gap.",
    _build_gateaux_chain,
)
_register(
    "embedding_constants",
    "Vector-valued embedding constants never exceed the scalar ones",
    "The L^4-vs-W^{1,2} ratio of every corpus member is bounded by the "
    "empirical scalar constant on a probe corpus.",
    _build_embedding,
)
_register(
    "mollifier_uniformity",
    "Uniform convolution approximation: mollification error decays like "
    "C/n uniformly over shift-bounded families",
    "Family sup errors are monotone, sit below the criterion-derived "
    "bound, and fit a decay order >= 0.9.",
    _build_mollifier,
)
_register(
    "extension_reflection",
    "Reflection extension: restriction is exact and the W-norm grows by "
    "at most 3^d",
    "Even reflection across every face restricts back bit-exactly with "
    "controlled norm growth.",
    _build_extension,
)
_register(
    "stampacchia_disjointness",
    "Stampacchia-type locality: where |u| vanishes against w, so does "
    "every D_j u",
    "A path vanishing on the support of w has derivative vanishing there "
    "up to the finite-difference tolerance.",
    _build_stampacchia,
)
_register(
    "quotient_rule",
    "Quotient rule for u / |u| against a capped cutoff",
    "The assembled formula field matches the finite difference of the "
    "normalized path at order >= 0.9 away from the zero set.",
    _build_quotient_rule,
)
_register(
    "product_rule",
    "Product rule for scalar multipliers: D_j(psi u) = psi D_j u + "
    "(D_j psi) u",
    "Central differences satisfy the product rule at second order for "
    "smooth data.",
    _build_product_rule,
)
_register(
    "norm_map_continuity",
    "Continuity of the norm map on W^{1,p}: vector convergence forces "
    "scalar convergence of pointwise norms",
    "Scalar W-distances track vector W-distances at order >= 0.9 along a "
    "convergent sequence bounded away from zero.",
    _build_norm_map_continuity,
)


def run_entry(name: str, seed: int, refine: int = 0, params: dict | None = None):
    if name not in CATALOG:
        raise KeyError(name)
    entry = CATALOG[name]
    rng = entry_rng(name, seed)
    rows, details = entry.builder(rng, refine, params or {})
    return rows, to_jsonable(details)
