"""The boundary-formula table and its machine verification.

Families are named by descriptors, and `FamilyContext` materializes them.
`FamilyContext.expansions` is the one table of the displayed boundary
formulas: per eta, mu or nu descriptor, its term groups as products
delta[left (x) right] with their multiplicities.  `FamilyContext.swept` lists
the family members a kill cycle's face sweeps.  The checks below match that
table against exact boundaries; `barcx.build_motive_chain` splices the same
table into chains.

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
        scalar = next((Fraction(residual[t], c) for t, c in grp.terms if t in residual), None)
        if scalar is not None:
            residual = residual - grp.scale(scalar)
        done.append(MatchInstance(group, label, scalar, len(grp)))
    # Fractions whatever their type, so reports write them as strings
    unmatched = [(repr(t), Fraction(c)) for t, c in residual.terms]
    return GroupMatchReport(target, done, unmatched)


# ---------------------------------------------------------------------------
# descriptors: the named families the boundary formulas are written in
#
#   ("pt", p)                   eta_point(p)
#   ("eta", points, names)      eta over X(len(names), points)
#   ("mu", c, names)            mu over Y(len(names), c)
#   ("nu", j, b1, b2, names)    nu over Z(len(names), j, b1, b2)
#   ("kmu", i, shift, names)    the mu kill cycle
#   ("knu", j, b1, b2, names)   the nu kill cycle
#
# names index the function tuple of a FamilyContext.


def desc_key(desc) -> str:
    """The sort key of chain candidates and the label of kill certificates;
    descriptors themselves are the cache keys."""
    kind = desc[0]
    if kind == "pt":
        return f"pt[{desc[1].key()}]"
    if kind == "eta":
        pts = ",".join(p.key() for p in desc[1])
        return f"eta[{pts}][{','.join(desc[2])}]"
    if kind == "mu":
        return f"mu[{desc[1].key()}][{','.join(desc[2])}]"
    if kind == "nu":
        return f"nu[{desc[1]}][{desc[2].key()},{desc[3].key()}][{','.join(desc[4])}]"
    if kind == "kmu":
        return f"kmu[{desc[1]}][{desc[2].key()}][{','.join(desc[3])}]"
    if kind == "knu":
        return f"knu[{desc[1]}][{desc[2].key()},{desc[3].key()}][{','.join(desc[4])}]"
    raise ValueError(f"unknown descriptor {desc!r}")


def _sorted_pts(pts):
    # spliced eta points go in key order, so that every splice path reaches
    # one descriptor; the F-coordinate is symmetric in them, so the family
    # does not change
    return tuple(sorted(pts, key=lambda p: p.key()))


def _without(names, name):
    return tuple(n for n in names if n != name)


class FamilyContext:
    """Materializes descriptors over a fixed admissible function tuple and
    holds the boundary-formula table: the checks below match it against
    exact boundaries, and the bar complex splices it into chains."""

    def __init__(self, curve, gs, mode="fbar"):
        self.curve = curve
        self.gs = {g.name: g for g in gs}
        self.names = tuple(self.gs)
        self.mode = mode
        self._cache = {}

    def g_tuple(self, names):
        return [self.gs[n] for n in names]

    def materialize(self, desc) -> CycleSum:
        if desc in self._cache:
            return self._cache[desc]
        kind, curve = desc[0], self.curve
        gsub = self.g_tuple(desc[-1]) if kind != "pt" else []
        n = len(gsub)
        if kind == "pt":
            out = decorate("eta_point", desc[1])
        elif kind == "eta":
            X = build_family("X", curve, n, gsub, fixed=desc[1], mode=self.mode)
            out = decorate("eta", X, n=n)
        elif kind == "mu":
            out = decorate("mu", build_family("Y", curve, n, gsub, fixed=(desc[1],)), n=n)
        elif kind == "nu":
            _, j, b1, b2, _ = desc
            out = decorate("nu", build_family("Z", curve, n, gsub, j=j, b1=b1, b2=b2), n=n)
        elif kind == "kmu":
            out = CycleSum.single(build_mu_killer(curve, gsub, desc[1], desc[2]))
        elif kind == "knu":
            out = CycleSum.single(build_nu_killer(curve, gsub, *desc[1:4]))
        else:
            raise ValueError(f"unknown descriptor {desc!r}")
        self._cache[desc] = out
        return out

    def expansions(self, desc):
        """The displayed boundary of one eta/mu/nu descriptor, term group by
        term group: (group, label, multiplicity, left, right) per product
        delta[left (x) right]."""
        kind = desc[0]
        if kind == "eta":
            _, pts, names = desc
            total = CurvePoint.at_infinity(self.curve)
            for p in pts:
                total = ec_add(total, p)
            if not names:
                for idx, al in enumerate(pts):
                    other = ec_neg(ec_add(al, total))
                    if not other.infinity:
                        yield "divisor-point", f"a{idx + 1}", 1, ("pt", al), ("pt", other)
                return
            for i, name in enumerate(names):
                for p, m in self.gs[name].divisor.terms:
                    left = ("eta", _sorted_pts(pts + (p,)), _without(names, name))
                    yield "divisor-point", f"g{i + 1}:{p.key()}", m, left, ("pt", p)
            for idx, al in enumerate(pts):
                yield "mu", f"a{idx + 1}", 1, ("pt", al), ("mu", ec_add(total, al), names)
                for j in range(1, len(names) + 1):
                    yield "nu", f"a{idx + 1},j={j}", 1, ("nu", j, total, al, names), ("pt", al)
        elif kind == "mu":
            _, c, names = desc
            for i, name in enumerate(names):
                for p, m in self.gs[name].divisor.terms:
                    left = ("mu", ec_add(c, p), _without(names, name))
                    yield "mu-lower", f"g{i + 1}:{p.key()}", m, left, ("pt", p)
        elif kind == "nu":
            # the face at y_i = q shifts the balancing constant b1 by q
            _, j, b1, b2, names = desc
            for i, name in enumerate(names):
                if i == j - 1:
                    continue
                rest = _without(names, name)
                jr = rest.index(names[j - 1]) + 1
                for q, m in self.gs[name].divisor.terms:
                    left = ("nu", jr, ec_add(b1, q), b2, rest)
                    yield "nu-discharge", f"g{i + 1}:{q.key()}", m, left, ("pt", q)

    def swept(self, killer):
        """The family members one face of a kill cycle sweeps:
        (group, label, multiplicity, member)."""
        if killer[0] == "kmu":
            _, i, shift, names = killer
            for p, m in self.gs[names[i - 1]].divisor.terms:
                yield "mu", f"mu^{{{p.key()}+shift}}", m, ("mu", ec_add(p, shift), names)
        elif killer[0] == "knu":
            _, j, b1, b2, names = killer
            for s, m in self.gs[names[j - 1]].divisor.terms:
                member = ("nu", j, ec_add(b1, ec_add(s, ec_neg(b2))), b2, names)
                yield "nu", f"Z^{{b1+{s.key()}-b2}}", m, member


def _match_expansions(ctx, lhs, desc, target) -> GroupMatchReport:
    """Match lhs against the table terms of desc, each product scaled by
    its multiplicity."""
    instances = [
        (group, label, external_product(ctx.materialize(left), ctx.materialize(right)).scale(m))
        for group, label, m, left, right in ctx.expansions(desc)
    ]
    return _match_groups(lhs, instances, target)


def verify_eta_boundary(curve, n, gs, fixed=(), mode="fbar") -> GroupMatchReport:
    ctx = FamilyContext(curve, gs, mode)
    top = ("eta", tuple(fixed), ctx.names)
    lhs = boundary(ctx.materialize(top))
    return _match_expansions(ctx, lhs, top, f"eta(n={n}, r={len(fixed)})")


def verify_mu_boundary(curve, n, gs, a) -> GroupMatchReport:
    ctx = FamilyContext(curve, gs)
    top = ("mu", a, ctx.names)
    return _match_expansions(ctx, boundary(ctx.materialize(top)), top, f"mu(n={n})")


def verify_nu_boundary(curve, n, gs, j, b1, b2) -> NuBoundaryReport:
    ctx = FamilyContext(curve, gs)
    top = ("nu", j, b1, b2, ctx.names)
    lhs = boundary(ctx.materialize(top))
    if lhs.is_zero():
        return NuBoundaryReport(n, True, 0, None)
    discharge = _match_expansions(ctx, lhs, top, f"nu(n={n}, j={j}) discharge")
    return NuBoundaryReport(n, False, len(lhs), discharge)


def verify_killer(ctx, killer) -> KillCycleReport:
    """The swept face of a kill cycle reproduces its family members; what
    is left after them is the face tail, not a failure."""
    lhs = boundary(ctx.materialize(killer))
    swept = [
        (group, label, ctx.materialize(member).scale(m))
        for group, label, m, member in ctx.swept(killer)
    ]
    rep = _match_groups(lhs, swept)
    reproduced = [(inst.label, inst.scalar) for inst in rep.instances]
    family = "mu-killer" if killer[0] == "kmu" else "nu-killer"
    return KillCycleReport(family, reproduced, rep.matched, len(rep.unmatched))


def verify_mu_killer(curve, gs, i, shift) -> KillCycleReport:
    """The z-face of the mu kill-cycle sweeps sum_p m_p mu^{p+shift}(gs)."""
    ctx = FamilyContext(curve, gs)
    return verify_killer(ctx, ("kmu", i, shift, ctx.names))


def verify_nu_killer(curve, gs, j, b1, b2) -> KillCycleReport:
    """The y_j-face of the nu kill-cycle sweeps the nu family; the term at
    the divisor point b2 is the nu cycle itself."""
    ctx = FamilyContext(curve, gs)
    return verify_killer(ctx, ("knu", j, b1, b2, ctx.names))


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
