"""The boundary-formula table and its machine verification.

Families are named by descriptors, and `FamilyContext` is the one path from
a descriptor to its decorated cycle sum: one context per function tuple,
holding every memo of the cycle engine for as long as it lives, one per
fact: a sum and a match report per descriptor, a boundary per canonical
cycle and a product per ordered pair of them.  A descriptor's boundary is
the combination of its terms' boundaries, so the checks below and the bar
differential share each family cycle's boundary.
`FamilyContext.expansions` is the one table of boundary identities: per
eta, mu or nu descriptor, its displayed term groups as
products delta[left (x) right], and per kill cycle the family members its
face sweeps, one factor each; every row carries its multiplicity.
`desc_motive` is the one table of the families' pure-motive labels; a
cycle sum carries none.  A context checks its tuple's admissibility once.
Both decoration pickers, `_default_mu_const` (the mu constant when none is
given) and `_decoration_points` (the boundaries suite's points), filter
their candidates through the rule that admitted the tuple, `cycles.misplaced`.
The boundaries suite, the checks below and `barcx.build_motive_chain` all
materialize through a context, and the chain builder splices the same table.

`verify_boundary_formulas(ctx, fixed)` checks the displayed identities over
the context's whole tuple (n = len(ctx.names)) at r = len(fixed).
`verify_expansion` expands the boundary of one descriptor symbolically and
classifies every term into its table rows (for eta: divisor-point, mu, nu),
instance by instance, each instance the product of its row's factors; the
identities pin no signs or multiplicities, so each instance's coefficient
is solved for and reported rather than asserted.  A match is complete when
every boundary term is consumed and every group instance received a
coefficient.  The kill cycle ("kill", d) of a mu/nu family d has as rows
the members its face sweeps, d's own row first, and members that are one
canonical cycle are matched as one row; by `certifies`, the rule of both
suites, it certifies d when every swept row, d's among them, received a
coefficient.  The terms left over are its face tail, not a failure.

The nu boundary is exactly zero for n = 1.  For n >= 2 its strict face
boundary consists of product terms delta[smaller-nu (x) point], which the
kill-cycle discharge rows match exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .curves import CurvePoint, ec_add, ec_neg, is_two_torsion
from .cycles import (
    AdmissibilityError,
    CycleSum,
    boundary,
    build_family,
    build_mu_killer,
    build_nu_killer,
    check_admissible,
    decorate,
    external_product,
    misplaced,
)
from .gl2 import H1, PureMotive


class MatchInstance:
    def __init__(self, group: str, label: str, scalar: Fraction | None, term_count: int):
        self.group = group
        self.label = label
        self.scalar = scalar
        self.term_count = term_count


class GroupMatchReport:
    def __init__(self, instances: list, unmatched: list):
        self.instances = instances
        self.unmatched = unmatched  # (repr, coefficient) pairs left over

    @property
    def matched(self) -> bool:
        """Every instance with terms received a scalar."""
        return all(inst.scalar is not None or inst.term_count == 0 for inst in self.instances)

    @property
    def complete(self) -> bool:
        return not self.unmatched and self.matched


class BoundaryFormulaReport:
    def __init__(
        self,
        eta: GroupMatchReport,
        mu: GroupMatchReport,
        nu: GroupMatchReport,
        nu_terms: int,
        killers: dict,
    ):
        self.eta = eta
        self.mu = mu
        self.nu = nu  # the kill-cycle discharge of d(nu)
        self.nu_terms = nu_terms  # the terms of the strict boundary d(nu)
        self.killers = killers  # family -> the match of its kill cycle

    @property
    def nu_passed(self) -> bool:
        """d(nu) is strictly zero, or the kill-cycle discharge matches it all."""
        return not self.nu_terms or self.nu.complete


def _match_groups(lhs, instances) -> GroupMatchReport:
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
    return GroupMatchReport(done, unmatched)


# ---------------------------------------------------------------------------
# descriptors: the named families the boundary formulas are written in
#
#   ("pt", p)                   eta_point(p)
#   ("eta", points, names)      eta over X(len(names), points)
#   ("mu", c, names)            mu over Y(len(names), c)
#   ("nu", j, b1, b2, names)    nu over Z(len(names), j, b1, b2)
#   ("kill", d)                 the kill cycle of the mu or nu family d
#
# names index the function tuple of a FamilyContext.


def desc_key(desc) -> str:
    """The sort key of chain candidates and of the chain's mu/nu families;
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
    raise ValueError(f"unknown descriptor {desc!r}")


def desc_motive(desc) -> PureMotive:
    """The pure-motive label of a point, eta, mu or nu family, with
    n = len(names): h^1(E), Sym^n h^1(E)(-1), Sym^{n+1} h^1(E) and
    Sym^{n-1} h^1(E)(-1)."""
    kind = desc[0]
    if kind == "pt":
        return H1
    n = len(desc[-1])
    if kind == "eta":
        return PureMotive(n, 1)
    if kind == "mu":
        return PureMotive(n + 1, 0)
    if kind == "nu":
        return PureMotive(n - 1, 1)
    raise ValueError(f"no motive label for descriptor {desc!r}")


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
    exact boundaries, and the bar complex splices it into chains and
    differentiates them through its memos.  The tuple is checked for
    admissibility once, here.  The memos are filled on first use and go
    with the context."""

    def __init__(self, curve, gs, mode="fbar"):
        violations = check_admissible(gs)
        if violations:
            raise AdmissibilityError("; ".join(violations))
        self.curve = curve
        self.gs = {g.name: g for g in gs}
        self.names = tuple(self.gs)
        self.mode = mode
        self._cache = {}  # descriptor -> decorated cycle sum
        self._reports = {}  # descriptor -> the match report of its table rows
        self._boundaries = {}  # canonical cycle -> its boundary
        self._products = {}  # (left, right) canonical cycles -> their product

    def g_tuple(self, names):
        return [self.gs[n] for n in names]

    def materialize(self, desc) -> CycleSum:
        if desc in self._cache:
            return self._cache[desc]
        kind, curve = desc[0], self.curve
        d = desc[1] if kind == "kill" else desc  # a kill cycle lives over d's names
        gsub = self.g_tuple(d[-1]) if kind != "pt" else []
        if kind == "pt":
            out = decorate("eta_point", desc[1])
        elif kind == "eta":
            out = decorate("eta", build_family("X", curve, gsub, fixed=desc[1], mode=self.mode))
        elif kind == "mu":
            out = decorate("mu", build_family("Y", curve, gsub, fixed=(desc[1],)))
        elif kind == "nu":
            _, j, b1, b2, _ = desc
            out = decorate("nu", build_family("Z", curve, gsub, j=j, b1=b1, b2=b2))
        elif kind == "kill":
            _, _, shift = self._sweep(d)
            if d[0] == "mu":
                out = CycleSum.single(build_mu_killer(curve, gsub, shift))
            else:
                out = CycleSum.single(build_nu_killer(curve, gsub, d[1], shift, d[3]))
        else:
            raise ValueError(f"unknown descriptor {desc!r}")
        self._cache[desc] = out
        return out

    def boundary(self, desc) -> CycleSum:
        """The boundary of a descriptor's decorated sum: the combination of
        its terms' boundaries, each computed once (`cycle_boundary`)."""
        return CycleSum(
            (face, c * fc)
            for cycle, c in self.materialize(desc).items()
            for face, fc in self.cycle_boundary(cycle).items()
        )

    def cycle_boundary(self, cycle) -> CycleSum:
        """The boundary of one canonical cycle, computed once."""
        out = self._boundaries.get(cycle)
        if out is None:
            out = self._boundaries[cycle] = boundary(CycleSum([(cycle, 1)]))
        return out

    def product(self, left, right) -> CycleSum:
        """The external product of an ordered pair of canonical cycles,
        computed once."""
        out = self._products.get((left, right))
        if out is None:
            out = external_product(CycleSum([(left, 1)]), CycleSum([(right, 1)]))
            self._products[left, right] = out
        return out

    def expansions(self, desc):
        """The table rows of one descriptor's boundary identity, as
        (group, label, multiplicity, factors): for eta/mu/nu the displayed
        term groups, one product delta[left (x) right] with factors
        (left, right) per row; for a kill cycle ("kill", d) the family
        members its face sweeps, one factor (member,) per row: d's own row,
        first, in the group "own", the others in "swept"."""
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
                        yield "divisor-point", f"a{idx + 1}", 1, (("pt", al), ("pt", other))
                return
            for i, name in enumerate(names):
                for p, m in self.gs[name].divisor.terms:
                    left = ("eta", _sorted_pts(pts + (p,)), _without(names, name))
                    yield "divisor-point", f"g{i + 1}:{p.key()}", m, (left, ("pt", p))
            for idx, al in enumerate(pts):
                yield "mu", f"a{idx + 1}", 1, (("pt", al), ("mu", ec_add(total, al), names))
                for j in range(1, len(names) + 1):
                    yield "nu", f"a{idx + 1},j={j}", 1, (("nu", j, total, al, names), ("pt", al))
        elif kind == "mu":
            _, c, names = desc
            for i, name in enumerate(names):
                for p, m in self.gs[name].divisor.terms:
                    left = ("mu", ec_add(c, p), _without(names, name))
                    yield "mu-lower", f"g{i + 1}:{p.key()}", m, (left, ("pt", p))
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
                    yield "nu-discharge", f"g{i + 1}:{q.key()}", m, (left, ("pt", q))
        elif kind == "kill":
            d = desc[1]
            g, slot, shift = self._sweep(d)
            for p, m in g.divisor.terms:
                member = d[:slot] + (ec_add(p, shift),) + d[slot + 1 :]
                label = f"mu^{{{p.key()}+shift}}" if d[0] == "mu" else f"Z^{{b1+{p.key()}-b2}}"
                yield "own" if member == d else "swept", label, m, (member,)

    def _sweep(self, d):
        """(g, slot, shift) of the kill cycle of a mu/nu family d: the cycle
        sweeps the divisor of g = g_1 (d = mu^c) or g_j (d = Z(j, b1, b2)),
        and its member at p is d with d[slot] (c or b1) replaced by
        p + shift.  shift = d[slot] - p0, p0 the first divisor point, so the
        first member is d itself."""
        slot = 1 if d[0] == "mu" else 2
        g = self.gs[d[-1][0] if d[0] == "mu" else d[-1][d[1] - 1]]
        return g, slot, ec_add(d[slot], ec_neg(g.divisor.terms[0][0]))


def verify_expansion(ctx, desc) -> GroupMatchReport:
    """Match the exact boundary of a descriptor against its table rows, each
    the product of its factors' sums scaled by its multiplicity; matched
    once per context.  The rows of a kill cycle whose members materialize
    to one canonical cycle are one row (`_merge_coincident`)."""
    rep = ctx._reports.get(desc)
    if rep is None:
        instances = [
            (group, label, reduce(external_product, map(ctx.materialize, factors)).scale(m))
            for group, label, m, factors in ctx.expansions(desc)
        ]
        if desc[0] == "kill":
            instances = _merge_coincident(instances)
        rep = ctx._reports[desc] = _match_groups(ctx.boundary(desc), instances)
    return rep


def _merge_coincident(instances):
    """One instance per canonical cycle among kill rows: coincident members
    are one family term, so their rows add up (in "own" if d's row is among
    them, under the joined labels, at the first row's place), and a merged
    row that sums to zero is dropped.  A vanishing member keeps its row."""
    merged = {}  # the member's cycles (its label when it vanishes) -> row
    for group, label, inst in instances:
        key = frozenset(inst) or label
        if key in merged:
            first, labels, total = merged[key]
            group = "own" if group == "own" else first
            merged[key] = (group, labels + [label], total + inst)
        else:
            merged[key] = (group, [label], inst)
    return [
        (group, " = ".join(labels), inst)
        for group, labels, inst in merged.values()
        if len(labels) == 1 or not inst.is_zero()
    ]


def verify_boundary_formulas(ctx, fixed=()) -> BoundaryFormulaReport:
    """Full check of the displayed boundary identities over the context's
    whole function tuple (n = len(ctx.names)), at r = len(fixed)."""
    names = ctx.names
    eta_rep = verify_expansion(ctx, ("eta", tuple(fixed), names))
    if not names:
        empty = GroupMatchReport([], [])
        return BoundaryFormulaReport(eta_rep, empty, empty, 0, {})
    a = fixed[0] if fixed else _default_mu_const(ctx.gs.values())
    b2 = fixed[1] if len(fixed) > 1 else a
    mu_rep = verify_expansion(ctx, ("mu", a, names))
    nu = ("nu", 1, a, b2, names)
    nu_rep = verify_expansion(ctx, nu)
    killers = {
        "mu-killer": verify_expansion(ctx, ("kill", ("mu", a, names))),
        "nu-killer": verify_expansion(ctx, ("kill", nu)),
    }
    return BoundaryFormulaReport(eta_rep, mu_rep, nu_rep, len(ctx.boundary(nu)), killers)


def certifies(rep: GroupMatchReport) -> bool:
    """The one certificate rule, for the match of a kill cycle ("kill", d):
    it certifies d when every row of the members its face sweeps received a
    scalar and d's own row, the group "own", is among them with a scalar."""
    return rep.matched and any(i.scalar is not None for i in rep.instances if i.group == "own")


def _signed_support(gs) -> set:
    """The support points of gs and their negatives: both pickers' bases."""
    out = set()
    for g in gs:
        out.update(g.divisor)
        out.update(ec_neg(p) for p in g.divisor)
    return out


def _default_mu_const(gs):
    # 2p for a support point p up to sign, placeable over gs, whose shifts
    # a + q stay away from 2-torsion, so no mu target degenerates
    supports = _signed_support(gs)
    for p in sorted(supports, key=lambda q: q.key()):
        cand = ec_add(p, p)
        if misplaced(cand, gs) or any(is_two_torsion(ec_add(cand, q)) for q in supports):
            continue
        return cand
    raise ValueError("no admissible decoration constant found")


def _decoration_points(gs, count):
    """Up to count decoration constants p + q, p and q support points up to
    sign, each placeable over gs and distinct from the others up to sign."""
    base = sorted(_signed_support(gs), key=lambda p: p.key())
    out = []
    for p in base:
        for q in base:
            cand = ec_add(p, q)
            if misplaced(cand, gs) or cand in out or ec_neg(cand) in out:
                continue
            out.append(cand)
            if len(out) >= count:
                return out
    return out
