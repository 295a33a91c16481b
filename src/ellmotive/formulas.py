"""Machine verification of the displayed boundary formulas.

`verify_boundary_formulas` expands the boundary of a decorated eta family
symbolically and classifies every term into the three term groups
(divisor-point, mu, nu), instance by instance; the identities pin no signs or
multiplicities, so each instance's coefficient is solved for and reported
rather than asserted.  The check passes when every boundary term is consumed
and every group instance received a coefficient.

The nu boundary is exactly zero for n = 1.  For n >= 2 its strict face
boundary consists of product terms delta[smaller-nu (x) point]; the
kill-cycle discharge certificate matches those exactly, and the two
kill-cycle families are verified to reproduce the mu and nu contributions
inside their own boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import CurvePoint, ec_add, ec_neg
from .cycles import (
    CycleSum,
    boundary,
    build_family,
    build_mu_killer,
    build_nu_killer,
    decorate,
    external_product,
)


@dataclass
class MatchInstance:
    group: str
    label: str
    scalar: Fraction | None
    term_count: int


@dataclass
class GroupMatchReport:
    target: str
    instances: list
    unmatched: list  # (repr, coefficient) pairs left over

    @property
    def matched(self) -> bool:
        """Every instance with terms received a scalar."""
        return all(inst.scalar is not None or inst.term_count == 0 for inst in self.instances)

    @property
    def complete(self) -> bool:
        return not self.unmatched and self.matched

    def scalars(self, group: str):
        return [inst.scalar for inst in self.instances if inst.group == group]


@dataclass
class NuBoundaryReport:
    n: int
    strict_zero: bool
    strict_term_count: int
    discharge: GroupMatchReport | None  # None when strictly zero


@dataclass
class KillCycleReport:
    family: str
    reproduced: list  # (label, scalar) per target contribution
    all_reproduced: bool
    tail_term_count: int


@dataclass
class BoundaryFormulaReport:
    eta: GroupMatchReport
    mu: GroupMatchReport
    nu: NuBoundaryReport
    killers: list

    @property
    def passed(self) -> bool:
        killers_ok = all(k.all_reproduced for k in self.killers)
        nu_ok = self.nu.strict_zero or (
            self.nu.discharge is not None and self.nu.discharge.complete
        )
        return self.eta.complete and self.mu.complete and nu_ok and killers_ok


def _match_groups(lhs, instances, target="") -> GroupMatchReport:
    """Greedy exact matching of a sum (a CycleSum or a BarChain): each
    instance is a sum of the same kind whose coefficient is solved from its
    first term, in key order, present in the residual, then subtracted.  An
    instance with no terms is skipped: a swept family may pass through a
    vanishing class.  The unmatched terms are listed in key order."""
    residual = lhs
    done = []
    for group, label, grp in instances:
        scalar = next((residual[t] / c for t, c in grp.terms if t in residual), None)
        if scalar is not None:
            residual = residual - grp.scale(scalar)
        done.append(MatchInstance(group, label, scalar, len(grp)))
    unmatched = [(repr(t), c) for t, c in residual.terms]
    return GroupMatchReport(target, done, unmatched)


def _point_sum(curve, points):
    acc = CurvePoint.at_infinity(curve)
    for p in points:
        acc = ec_add(acc, p)
    return acc


def eta_group_instances(curve, n, gs, fixed, mode="fbar"):
    """The right-hand-side instances of the eta boundary display."""
    instances = []
    if n >= 1:
        for i, g in enumerate(gs):
            rest = [h for h in gs if h is not g]
            for p, m in g.divisor.terms:
                Xp = build_family("X", curve, n - 1, rest, fixed=tuple(fixed) + (p,), mode=mode)
                grp = external_product(
                    decorate("eta", Xp, n=n - 1), decorate("eta_point", p)
                ).scale(m)
                instances.append(("divisor-point", f"g{i + 1}:{p.key()}", grp))
    else:
        total = _point_sum(curve, fixed)
        for idx, al in enumerate(fixed):
            other = ec_neg(ec_add(al, total))
            grp = external_product(
                decorate("eta_point", al), decorate("eta_point", other)
            )
            instances.append(("divisor-point", f"a{idx + 1}", grp))
    if n >= 1:
        total = _point_sum(curve, fixed)
        for idx, al in enumerate(fixed):
            Ym = build_family("Y", curve, n, gs, fixed=(ec_add(total, al),))
            grp = external_product(
                decorate("eta_point", al), decorate("mu", Ym, n=n)
            )
            instances.append(("mu", f"a{idx + 1}", grp))
            for j in range(1, n + 1):
                Zj = build_family("Z", curve, n, gs, j=j, b1=total, b2=al)
                grp = external_product(
                    decorate("nu", Zj, n=n), decorate("eta_point", al)
                )
                instances.append(("nu", f"a{idx + 1},j={j}", grp))
    return instances


def verify_eta_boundary(curve, n, gs, fixed=(), mode="fbar") -> GroupMatchReport:
    X = build_family("X", curve, n, gs, fixed=tuple(fixed), mode=mode)
    lhs = boundary(decorate("eta", X, n=n))
    instances = eta_group_instances(curve, n, gs, fixed, mode)
    return _match_groups(lhs, instances, f"eta(n={n}, r={len(fixed)})")


def verify_mu_boundary(curve, n, gs, a) -> GroupMatchReport:
    Y = build_family("Y", curve, n, gs, fixed=(a,))
    lhs = boundary(decorate("mu", Y, n=n))
    instances = []
    for i, g in enumerate(gs):
        rest = [h for h in gs if h is not g]
        for p, m in g.divisor.terms:
            Yp = build_family("Y", curve, n - 1, rest, fixed=(ec_add(a, p),))
            grp = external_product(
                decorate("mu", Yp, n=n - 1), decorate("eta_point", p)
            ).scale(m)
            instances.append(("mu-lower", f"g{i + 1}:{p.key()}", grp))
    return _match_groups(lhs, instances, f"mu(n={n})")


def verify_nu_boundary(curve, n, gs, j, b1, b2) -> NuBoundaryReport:
    Z = build_family("Z", curve, n, gs, j=j, b1=b1, b2=b2)
    lhs = boundary(decorate("nu", Z, n=n))
    if lhs.is_zero():
        return NuBoundaryReport(n, True, 0, None)
    instances = []
    for i, g in enumerate(gs):
        if i == j - 1:
            continue
        rest = [h for h in gs if h is not g]
        jr = j - 1 if i < j - 1 else j  # index of g_j within the reduced tuple
        for q, m in g.divisor.terms:
            # the face at y_i = q shifts the balancing constant by q
            Zv = build_family("Z", curve, n - 1, rest, j=jr, b1=ec_add(b1, q), b2=b2)
            grp = external_product(
                decorate("nu", Zv, n=n - 1), decorate("eta_point", q)
            ).scale(m)
            instances.append(("nu-discharge", f"g{i + 1}:{q.key()}", grp))
    discharge = _match_groups(lhs, instances, f"nu(n={n}, j={j}) discharge")
    return NuBoundaryReport(n, False, len(lhs), discharge)


def verify_mu_killer(curve, gs, i, shift) -> KillCycleReport:
    """The z-face of the mu kill-cycle sweeps sum_p m_p mu^{p+shift}(gs)."""
    lhs = boundary(CycleSum.single(build_mu_killer(curve, gs, i, shift)))
    swept = []
    for p, m in gs[i - 1].divisor.terms:
        Y = build_family("Y", curve, len(gs), gs, fixed=(ec_add(p, shift),))
        swept.append(("mu", f"mu^{{{p.key()}+shift}}", decorate("mu", Y, n=len(gs)).scale(m)))
    return _kill_report("mu-killer", lhs, swept)


def verify_nu_killer(curve, gs, j, b1, b2) -> KillCycleReport:
    """The y_j-face of the nu kill-cycle sweeps the nu family; the term at
    the divisor point b2 is the nu cycle itself."""
    lhs = boundary(CycleSum.single(build_nu_killer(curve, gs, j, b1, b2)))
    swept = []
    for s, m in gs[j - 1].divisor.terms:
        Zv = build_family(
            "Z", curve, len(gs), gs, j=j, b1=ec_add(b1, ec_add(s, ec_neg(b2))), b2=b2
        )
        swept.append(("nu", f"Z^{{b1+{s.key()}-b2}}", decorate("nu", Zv, n=len(gs)).scale(m)))
    return _kill_report("nu-killer", lhs, swept)


def _kill_report(family, lhs, swept) -> KillCycleReport:
    # what is left after the swept members is the face tail, not a failure
    rep = _match_groups(lhs, swept)
    reproduced = [(inst.label, inst.scalar) for inst in rep.instances]
    return KillCycleReport(family, reproduced, rep.matched, len(rep.unmatched))


def verify_boundary_formulas(curve, n, gs, fixed=(), mode="fbar") -> BoundaryFormulaReport:
    """Full check of the displayed boundary identities at one (n, r)."""
    eta_rep = verify_eta_boundary(curve, n, gs, fixed, mode)
    if n >= 1:
        a = fixed[0] if fixed else _default_mu_const(curve, gs)
        mu_rep = verify_mu_boundary(curve, n, gs, a)
        b1 = fixed[0] if fixed else a
        b2 = fixed[1] if len(fixed) > 1 else a
        nu_rep = verify_nu_boundary(curve, n, gs, 1, b1, b2)
        killers = [
            verify_mu_killer(curve, gs, 1, a),
            verify_nu_killer(curve, gs, 1, b1, b2),
        ]
    else:
        mu_rep = GroupMatchReport(f"mu(n={n})", [], [])
        nu_rep = NuBoundaryReport(n, True, 0, None)
        killers = []
    return BoundaryFormulaReport(eta_rep, mu_rep, nu_rep, killers)


def _default_mu_const(curve, gs):
    # a point away from supports and torsion whose shifts a + p stay away from
    # 2-torsion, so no mu target degenerates
    from .curves import ec_scalar_mul, is_two_torsion

    supports = set()
    for g in gs:
        supports.update(g.divisor)
        supports.update(ec_neg(p) for p in g.divisor)
    for p in sorted(supports, key=lambda q: q.key()):
        cand = ec_add(p, p)
        if (
            cand.infinity
            or cand in supports
            or is_two_torsion(cand)
            or ec_scalar_mul(3, cand).infinity
        ):
            continue
        if any(is_two_torsion(ec_add(cand, q)) for q in supports):
            continue
        return cand
    raise ValueError("no admissible decoration constant found")
