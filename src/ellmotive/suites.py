"""The verification suites behind the CLI: projectors, divisors, boundaries,
bar, and the combined run.  Every check appends one report record; internal
degeneracy errors become fail records rather than crashes; randomized spot
checks draw from a generator seeded by the config."""

from __future__ import annotations

import random
from math import factorial

from . import barcx, curves, cycles, divisors, formulas, symgrp
from .config import Config
from .fixtures import two_torsion_curve_f11, two_torsion_curve_f101
from .report import Report


def run_suite(cfg: Config, suite: str) -> Report:
    report = Report(cfg.raw)
    runners = {
        "projectors": [_suite_projectors],
        "divisors": [_suite_divisors],
        "boundaries": [_suite_boundaries],
        "bar": [_suite_bar],
        "all": [_suite_projectors, _suite_divisors, _suite_boundaries, _suite_bar],
    }
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}")
    for runner in runners[suite]:
        try:
            runner(cfg, report)
        except Exception as exc:  # noqa: BLE001 - suite errors become fail records
            report.add(f"{runner.__name__}:aborted", "internal error", False, repr(exc))
    return report


# ---------------------------------------------------------------------------


def _suite_projectors(cfg: Config, report: Report):
    # quasi-idempotency e_T^2 = (b!/dim) e_T for all standard tableaux, b <= 5
    all_ok = True
    checked = 0
    for b in range(1, 6):
        for rows in symgrp.partitions(b):
            lam = factorial(b) // symgrp.hook_length_dimension(rows)
            for shape in symgrp.standard_tableaux(rows):
                e = symgrp.young_symmetrizer(shape)
                if e * e != e.scale(lam):
                    all_ok = False
                checked += 1
    report.add(
        "projectors:quasi-idempotency",
        "e_T * e_T = (b!/dim S^lambda) * e_T, hook-length dimensions",
        all_ok,
        f"{checked} standard tableaux with b <= 5",
    )

    # transpose is an involution
    inv_ok = True
    for b in range(2, 6):
        for rows in symgrp.partitions(b):
            for mode in ("tableau", "tabloid"):
                shape = symgrp.YoungShape.standard(rows, mode)
                p = (
                    symgrp.young_symmetrizer(shape)
                    if mode == "tableau"
                    else symgrp.tabloid_row_projector(shape)
                )
                ptt = symgrp.transpose_projector(shape.transpose())
                if ptt != p:
                    inv_ok = False
    report.add(
        "projectors:transpose-involution",
        "(p^t)^t = p for tableau symmetrizers and tabloid row projectors",
        inv_ok,
    )

    # Alt_{G_c} squares to 2^c c! Alt
    alt_ok = True
    for c in range(1, 4):
        alt = symgrp.alt_signed_group(c)
        lam = (2**c) * factorial(c)
        if alt * alt != alt.scale(lam):
            alt_ok = False
    report.add(
        "projectors:alt-signed-square",
        "Alt_{G_c} * Alt_{G_c} = 2^c c! Alt_{G_c}",
        alt_ok,
        "c = 1..3",
    )

    # signed by the sign character, the right action is an action
    act_ok = True
    rng = random.Random(cfg.seed)
    for _ in range(10):
        b = rng.randint(2, 4)
        v = symgrp.GroupAlgebraElement.unit(b)
        p = symgrp.young_symmetrizer(symgrp.YoungShape.standard(_rand_rows(rng, b)))
        twice = symgrp.right_act_element(symgrp.right_act_element(v, p), p)
        once = symgrp.right_act_element(v, p * p)
        if twice != once:
            act_ok = False
    report.add(
        "projectors:right-action",
        "acting twice via p equals acting once via p*p (right-action convention)",
        act_ok,
    )

    # the documented sign-display ambiguity: both readings computed
    table = symgrp.sign_convention_table()
    report.flag(
        "projectors:sign-display",
        "right action sign display: (-1)^{signature(sigma)} vs (-1)^{(|sigma|+1)}",
        {
            "readings": table,
            "note": (
                "the two displayed exponents disagree (the literal |sigma|+1 reading "
                "even sends the identity to -1 and is not multiplicative); the engine "
                "uses the sign character (-1)^{|sigma|} and exposes both readings"
            ),
        },
    )


def _rand_rows(rng, b):
    rows = []
    left = b
    while left:
        r = rng.randint(1, left)
        if rows and r > rows[-1]:
            r = rows[-1]
        rows.append(r)
        left -= r
    return tuple(rows)


# ---------------------------------------------------------------------------


def _suite_divisors(cfg: Config, report: Report):
    curve = cfg.curve
    zero = curves.CurvePoint.at_infinity(curve)

    fb2 = divisors.make_fbar_divisor(curve, 2)
    expected = divisors.ProductDivisorClass.of(
        curve,
        2,
        [(("Delta", 1, 2), 1), (("Psi", 1, 2), 1), (("D", 1, zero), -2), (("D", 2, zero), -2)],
    )
    report.add(
        "divisors:fbar2",
        "(F-bar_2) = Delta + Psi - 2{E x {0}} - 2{{0} x E}",
        fb2 == expected,
    )
    report.add(
        "divisors:fbar2-symmetry",
        "F-bar_2(x, y) = F-bar_2(y, x)",
        divisors.swap_factors_square(fb2) == fb2,
    )

    # alternating projection identities on E^2
    delta = divisors.ProductDivisorClass.of(curve, 2, [(("Delta", 1, 2), 1)])
    psi = divisors.ProductDivisorClass.of(curve, 2, [(("Psi", 1, 2), 1)])
    alt_d = divisors.alt_project_square(delta)
    alt_p = divisors.alt_project_square(psi)
    report.add(
        "divisors:alt-delta",
        "Alt_{(Z/2Z)^2}(Delta) = 2(Delta - Psi)",
        alt_d == delta.scale(2) - psi.scale(2),
    )
    report.add(
        "divisors:alt-psi",
        "Alt(Psi) = 2(Psi - Delta)",
        alt_p == psi.scale(2) - delta.scale(2),
    )
    d1 = divisors.ProductDivisorClass.of(curve, 2, [(("D", 1, zero), 1)])
    report.add(
        "divisors:alt-kills-symmetric",
        "every element of CH^0(E^2) is invariant; the alternating projection is zero",
        divisors.alt_project_square(d1).is_zero(),
    )
    report.add(
        "divisors:alt-square",
        "Alt(Alt(c)) = 4 Alt(c)",
        divisors.alt_project_square(alt_d) == alt_d.scale(4),
    )
    report.add(
        "divisors:alt-swap-commutes",
        "swapping the factors of E^2 commutes with the alternating projection",
        divisors.alt_project_square(divisors.swap_factors_square(delta))
        == divisors.swap_factors_square(alt_d),
    )

    # h_n recipes over a full-2-torsion prime-field fixture
    tt_curve = two_torsion_curve_f11()
    tors = curves.full_two_torsion(tt_curve)
    u, v = tors[0], tors[1]
    h2 = divisors.make_hn_divisor(2, u, v)
    h3 = divisors.make_hn_divisor(3, u, v)
    report.add(
        "divisors:h2",
        "(h_n) = n(u) - n(0) if n is even",
        h2.coeff(u) == 2 and h2.coeff(curves.CurvePoint.at_infinity(tt_curve)) == -2,
    )
    report.add(
        "divisors:h3",
        "(h_n) = (n-2)(u) + (v) + (u+v) - n(0) if n is odd",
        h3.coeff(u) == 1
        and h3.coeff(v) == 1
        and h3.coeff(curves.ec_add(u, v)) == 1
        and h3.degree() == 0,
    )
    report.add(
        "divisors:hn-principal",
        "every h_n divisor is principal (Abel's criterion)",
        all(divisors.is_principal(divisors.make_hn_divisor(n, u, v)) for n in (2, 3, 4, 5)),
    )

    # the F_n discrepancy: product reading vs displayed reading, always flagged
    rep = divisors.make_fn_divisor(tt_curve, 2, u, v)
    report.flag(
        "divisors:fn-discrepancy",
        "(F_n) displayed with poles at u in every coordinate vs the defining "
        "product F-bar_n h_n^{-1}(z_2)...h_n^{-1}(z_n)",
        {
            "product": repr(rep.product),
            "displayed": repr(rep.displayed),
            "difference": [(k, str(a), str(b)) for k, a, b in rep.difference],
        },
    )
    report.add(
        "divisors:fn-diff-nonempty",
        "the two readings of (F_n) differ in coordinate 1",
        bool(rep.difference),
    )

    # fiberwise restriction of (F-bar_n): degree 0 and principal, sampled
    f101 = two_torsion_curve_f101()
    pts101 = [p for p in curves.enumerate_points(f101) if not p.infinity]
    rng = random.Random(cfg.seed)
    trials = cfg.bounds.random_trials
    ok_all = True
    detail = []
    for n in (2, 3, 4):
        cls = divisors.make_fbar_divisor(f101, n)
        for i in range(1, n + 1):
            others = [j for j in range(1, n + 1) if j != i]
            fixed = {j: divisors.PointExpr.param(f101, f"q{j}") for j in others}
            sym = divisors.restrict_to_fiber(cls, i, fixed)
            for _ in range(trials):
                conc = sym.evaluate({f"q{j}": rng.choice(pts101) for j in others})
                if conc.degree() != 0 or not divisors.is_principal(conc):
                    ok_all = False
            detail.append(f"n={n} i={i}: {trials} generic tuples")
    report.add(
        "divisors:fiber-restriction",
        "every fiberwise restriction of (F-bar_n) has degree 0 and group-law sum 0",
        ok_all,
        "; ".join(detail),
    )

    # Abel criterion witnesses
    for g in cfg.functions:
        report.add(
            f"divisors:principal:{g.name}",
            "degree 0 and group-law sum equal to the identity",
            divisors.is_principal(g.divisor),
        )
    _add_p_minus_neg_p(
        cfg,
        report,
        "divisors:P-minus-negP",
        "(P)-(-P) is not the divisor of a function",
        with_double=True,
    )


def _add_p_minus_neg_p(cfg: Config, report: Report, rid, anchor, with_double=False):
    """One record: (P)-(-P) is not principal, P the first support point of
    the functions for which that holds (2P != 0), so P may still have finite
    order.  No record when every support point is 2-torsion."""
    P = barcx.non_principal_point(p for g in cfg.functions for p in g.divisor.support())
    if P is None:
        return
    details = f"P = {P.key()}"
    if with_double:
        details += f", 2P = {curves.ec_scalar_mul(2, P).key()}"
    report.add(rid, anchor, True, details)


# ---------------------------------------------------------------------------


def _suite_boundaries(cfg: Config, report: Report):
    curve, gs = cfg.curve, cfg.functions
    adm = cycles.check_admissible(gs, cfg.mode)
    report.add(
        "boundaries:admissible",
        "divisors pairwise disjointly supported, disjoint from {(0)}, not even, "
        ">= 2n distinct points",
        adm.passed,
        list(adm.violations),
    )
    if not adm.passed:
        return
    fixed = _decoration_points(cfg)
    # the records at r use fixed[:r], the Y and Z families fixed[0]: a
    # shortfall is one fail record, and no record claims a point it lacks
    needed = max(cfg.bounds.r_max, 1)
    if len(fixed) < needed:
        report.add(
            "boundaries:decoration-points",
            "decoration constants away from the supports and small torsion",
            False,
            f"{len(fixed)} found, {needed} needed; no record uses more than {len(fixed)}",
        )
    r_max = min(cfg.bounds.r_max, len(fixed))
    # one context per function tuple g1..gn: the dd and formula checks
    # materialize every family through it
    contexts = [
        formulas.FamilyContext(curve, gs[:n], cfg.mode)
        for n in range(1, min(cfg.bounds.n_max, len(gs)) + 1)
    ]

    # dd = 0 for the families and their decorations, each family apart, so a
    # degenerate one does not take the others along
    for ctx in contexts:
        for rid, anchor, desc in _dd_families(ctx.names, fixed, r_max):
            try:
                dd = cycles.boundary(ctx.boundary(desc))
                report.add(rid, anchor, dd.is_zero())
            except divisors.DegeneracyError as exc:
                report.add(rid, "dd = 0", False, repr(exc))

    # the displayed boundary formulas
    for n, ctx in enumerate(contexts, 1):
        for r in range(0, r_max + 1):
            try:
                rep = formulas.verify_boundary_formulas(ctx, fixed=tuple(fixed[:r]))
            except ValueError as exc:  # a degenerate family, or no default constant
                report.add(f"boundaries:formulas:n={n},r={r}", "formulas", False, repr(exc))
                continue
            scalars = {}
            for inst in rep.eta.instances:
                scalars.setdefault(inst.group, []).append(
                    str(inst.scalar) if inst.scalar is not None else "empty"
                )
            report.add(
                f"boundaries:eta-formula:n={n},r={r}",
                "d(eta) = [divisor-point group] + [mu group] + [nu group], "
                "coefficients relative to the fixed sign convention",
                rep.eta.complete,
                {"group_scalars": scalars, "unmatched": rep.eta.unmatched},
            )
            report.add(
                f"boundaries:mu-formula:n={n},r={r}",
                "d(mu^a) = sum delta[mu^{a+p} (x) eta(p)]",
                rep.mu.complete,
                None if rep.mu.complete else _match_failure(rep.mu),
            )
            nu_detail = (
                "strictly zero"
                if not rep.nu_terms
                else f"{rep.nu_terms} strict terms, all discharged by the kill-cycle family"
            )
            report.add(
                f"boundaries:nu-formula:n={n},r={r}",
                "d(nu) = 0 (exactly for n = 1; via the kill-cycle discharge for n >= 2)",
                rep.nu_passed,
                nu_detail,
            )
            for family, k in rep.killers.items():
                report.add(
                    f"boundaries:{family}:n={n},r={r}",
                    "the kill-cycle boundary reproduces the mu/nu contributions",
                    formulas.certifies(k),
                    {"reproduced": [(i.label, str(i.scalar)) for i in k.instances],
                     "tail_terms": len(k.unmatched)},
                )


def _dd_families(names, fixed, r_max):
    """(record id, anchor, descriptor) of the decorated X family at each r,
    then, given a point, the decorated Y and Z families, over the tuple names."""
    n = len(names)
    for r in range(0, r_max + 1):
        yield (
            f"boundaries:ddX:n={n},r={r}",
            "the cubical boundary squares to zero on the decorated X family",
            ("eta", tuple(fixed[:r]), names),
        )
    if not fixed:
        return
    yield f"boundaries:ddY:n={n}", "dd = 0 on the decorated Y family", ("mu", fixed[0], names)
    nu = ("nu", 1, fixed[0], fixed[1 % len(fixed)], names)
    yield f"boundaries:ddZ:n={n}", "dd = 0 on the decorated Z family", nu


def _match_failure(rep) -> dict:
    """What a failed group match left: the instances that got no scalar and
    the number of unmatched terms."""
    return {
        "no_scalar": [[i.group, i.label] for i in rep.instances if i.scalar is None],
        "unmatched_terms": len(rep.unmatched),
    }


def _decoration_points(cfg: Config):
    """Decoration constants away from supports and small torsion."""
    supports = set()
    for g in cfg.functions:
        supports.update(g.divisor)
        supports.update(curves.ec_neg(p) for p in g.divisor)
    out = []
    base = sorted(supports, key=lambda p: p.key())
    for p in base:
        for q in base:
            cand = curves.ec_add(p, q)
            if (
                cand.infinity
                or cand in supports
                or curves.ec_neg(cand) in supports
                or curves.is_two_torsion(cand)
                or curves.ec_scalar_mul(3, cand).infinity
                or cand in out
                or curves.ec_neg(cand) in out
            ):
                continue
            out.append(cand)
            if len(out) >= cfg.bounds.r_max + 1:
                return out
    return out


# ---------------------------------------------------------------------------

_CHAIN_ERRORS = (barcx.ChainConstructionError, divisors.DegeneracyError, cycles.AdmissibilityError)


def _bar_cocycle(mc):
    # build_motive_chain returns only chains that pass its cocycle gate; a
    # chain that fails it is the bar:chain fail record
    return True, f"{len(mc.chain)} words, lengths {mc.chain.lengths()}"


def _bar_dd(mc):
    # D of the cocycle is 0, so D(D(chain)) would test D on nothing: square D
    # on the length-2 layer, whose faces and products do not cancel
    slots = mc.context.slots
    d = barcx.bar_differential(mc.chain.component(2), slots)
    return not d.is_zero() and barcx.bar_differential(d, slots).is_zero(), None


def _bar_kills(mc):
    kills = barcx.kill_certificates(mc)
    return all(formulas.certifies(k) for _, k in kills), f"{len(kills)} families certified"


def _bar_comultiply(mc):
    crep = barcx.comultiply_report(mc)
    return crep.passed, {"middle_groups": len(crep.middle)}


def _bar_span(mc):
    span = barcx.comodule_span(mc)
    return span.closed, f"{len(span.members)} members"


def _bar_nontriviality(mc):
    cert = barcx.nontriviality_witness(mc.chain)
    return cert.nontrivial, {
        "point": cert.point.key() if cert.point else None,
        "double": cert.double.key() if cert.double else None,
        "reason": cert.reason,
    }


def _bar_leading_alone(mc):
    # the boundary of the leading term is nonempty for n >= 1
    leading_alone, _ = barcx.verify_cocycle(mc.chain.component(1), mc.context.slots)
    return not leading_alone, None


# (check, anchor, run): each runs on a built chain and returns (ok, details);
# a chain error in one becomes that check's fail record
_BAR_CHECKS = (
    (
        "cocycle",
        "the chain and its successive boundaries define a cohomology class",
        _bar_cocycle,
    ),
    ("DD", "the bar differential squares to zero", _bar_dd),
    (
        "kill-certificates",
        "d(kill cycle) = swept mu/nu family combination + face tail, exactly",
        _bar_kills,
    ),
    (
        "comultiply",
        "psi(E) = E (x) 1 + sum E^p (x) [p] + ... + 1 (x) E; counital, coassociative",
        _bar_comultiply,
    ),
    (
        "comodule-span",
        "the layer chains, the point classes, and 1 span a comodule",
        _bar_span,
    ),
    (
        "nontriviality",
        "the final term is generically not a coboundary: (P)-(-P) is not the "
        "divisor of a function",
        _bar_nontriviality,
    ),
    ("leading-alone", "the leading term alone is not a cocycle", _bar_leading_alone),
)


def _suite_bar(cfg: Config, report: Report):
    curve, gs = cfg.curve, cfg.functions
    n_max = min(cfg.bounds.n_max, len(gs))
    for n in range(1, n_max + 1):
        gsub = gs[:n]
        try:
            mc = barcx.build_motive_chain(curve, gsub, mode=cfg.mode)
        except _CHAIN_ERRORS as exc:
            report.add(f"bar:chain:n={n}", "the motive chain exists", False, repr(exc))
            continue
        for check, anchor, run in _BAR_CHECKS:
            try:
                ok, details = run(mc)
            except _CHAIN_ERRORS as exc:
                ok, details = False, repr(exc)
            report.add(f"bar:{check}:n={n}", anchor, ok, details)
    # Ext witness at the h^1(E) layer
    _add_p_minus_neg_p(
        cfg,
        report,
        "bar:ext-witness",
        "Ext^1(h^1(E), Q) = E(k) (x) Q: the class of (P)-(-P) is a nonzero element",
    )
