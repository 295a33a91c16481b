"""Bar-complex words and chains over the cycle engine.

Words are tensor lists of canonical cycles, each slot tagged with its motive
label.  The total differential is the reduced-bar differential: internal
boundaries per slot and products of adjacent slots, with signs determined by
the cube-dimension parities (the convention compatible with the face-sign
Leibniz rule); D squares to zero.

`build_motive_chain` assembles the canonical cocycle with a given leading
family: lower layers are generated mechanically by splicing in the verified
boundary-formula expansions and solving the contraction equations exactly,
layer by layer; the chain terminates in pure tensor words of point classes.
The mu/nu families the expansions bring in are certified trivial by the two
kill-cycle families (each swept family combination is exactly the boundary
of its kill cycle; see `kill_certificates` for why the discharge lives at
the family level).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .curves import CurvePoint, ec_add, ec_neg
from .cycles import CycleSum, boundary, build_family, decorate, external_product
from .formulas import KillCycleReport, _match_groups, verify_mu_killer, verify_nu_killer
from .gl2 import PureMotive, clebsch_gordan
from .lincomb import LinComb, accumulate


class ChainConstructionError(ValueError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# words and chains: slots are (canonical cycle, motive tuple)


@dataclass(frozen=True)
class BarWord:
    slots: tuple  # tuple of ParamCycle (canonical)
    # motive labels are bookkeeping: words are compared by their slots only
    motives: tuple = field(compare=False, default=())

    @property
    def length(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return " | ".join(repr(s) for s in self.slots)


def _word_key(w: BarWord):
    return tuple(s.key() for s in w.slots)


class BarChain(LinComb):
    """Exact linear combination of bar words."""

    __slots__ = ()
    sort_key = staticmethod(_word_key)

    @staticmethod
    def from_cycle_sums(sums, coeff=1) -> "BarChain":
        """Multilinear expansion of a tensor list of CycleSums into pure words."""
        motives = tuple(tuple(s.motives) for s in sums)
        items = []
        for picks in itertools.product(*[s.items() for s in sums]):
            c = Fraction(coeff)
            for _, pc in picks:
                c *= pc
            items.append((BarWord(tuple(p for p, _ in picks), motives), c))
        return BarChain(items)

    def component(self, length: int) -> "BarChain":
        return self._like({w: c for w, c in self.items() if w.length == length})

    def lengths(self):
        return sorted({w.length for w in self})

    def __repr__(self) -> str:
        return "\n".join(f"{c} * [{w!r}]" for w, c in self.terms) or "0"


def _prefix_parity(word: BarWord, i: int) -> int:
    """(-1)^(sum_{k<i} (c_k + 1)); i is 0-based."""
    total = sum(word.slots[k].c + 1 for k in range(i))
    return -1 if total % 2 else 1


def bar_differential(chain: BarChain) -> BarChain:
    """Internal boundaries plus adjacent products, reduced-bar signs."""
    items = []
    for word, coeff in chain.items():
        slots, motives = word.slots, word.motives
        # the slots are canonical already: they enter as they are
        sums = [CycleSum([(s, 1)], m) for s, m in zip(slots, motives)]
        for i in range(len(slots)):
            c = coeff * _prefix_parity(word, i)
            for face, fc in boundary(sums[i]).items():
                items.append((BarWord(slots[:i] + (face,) + slots[i + 1 :], motives), c * fc))
        for i in range(len(slots) - 1):
            c = coeff * _prefix_parity(word, i + 1)
            merged = motives[:i] + (motives[i] + motives[i + 1],) + motives[i + 2 :]
            for prod, pc in external_product(sums[i], sums[i + 1]).items():
                items.append((BarWord(slots[:i] + (prod,) + slots[i + 2 :], merged), c * pc))
    return BarChain(items)


def verify_cocycle(chain: BarChain):
    """True iff the bar differential of the chain canonicalizes to zero."""
    diff = bar_differential(chain)
    return diff.is_zero(), diff


# ---------------------------------------------------------------------------
# descriptors: the named families a chain layer can be built from


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
    raise ChainConstructionError(f"unknown descriptor {desc!r}")


class FamilyContext:
    """Materializes descriptors over a fixed admissible function tuple."""

    def __init__(self, curve, gs, mode="fbar"):
        self.curve = curve
        self.gs = {g.name: g for g in gs}
        self.mode = mode
        self._cache = {}

    def g_tuple(self, names):
        return [self.gs[n] for n in names]

    def materialize(self, desc) -> CycleSum:
        if desc in self._cache:
            return self._cache[desc]
        kind = desc[0]
        if kind == "pt":
            out = decorate("eta_point", desc[1])
        elif kind == "eta":
            pts, names = desc[1], desc[2]
            gsub = self.g_tuple(names)
            X = build_family("X", self.curve, len(gsub), gsub, fixed=tuple(pts), mode=self.mode)
            out = decorate("eta", X, n=len(gsub))
        elif kind == "mu":
            c, names = desc[1], desc[2]
            gsub = self.g_tuple(names)
            Y = build_family("Y", self.curve, len(gsub), gsub, fixed=(c,))
            out = decorate("mu", Y, n=len(gsub))
        elif kind == "nu":
            j, b1, b2, names = desc[1], desc[2], desc[3], desc[4]
            gsub = self.g_tuple(names)
            Z = build_family("Z", self.curve, len(gsub), gsub, j=j, b1=b1, b2=b2)
            out = decorate("nu", Z, n=len(gsub))
        else:
            raise ChainConstructionError(f"unknown descriptor {desc!r}")
        self._cache[desc] = out
        return out

    def expansions(self, desc):
        """The 2-slot splices of one descriptor, per the verified boundary
        formula groups; both tensor orders are offered to the solver."""
        kind = desc[0]
        out = []
        if kind == "eta":
            pts, names = desc[1], desc[2]
            total = CurvePoint.at_infinity(self.curve)
            for p in pts:
                total = ec_add(total, p)
            if names:
                for i, name in enumerate(names):
                    rest = tuple(n for n in names if n != name)
                    for p, _ in self.gs[name].divisor.terms:
                        out.append((("eta", _sorted_pts(pts + (p,)), rest), ("pt", p)))
                for idx, al in enumerate(pts):
                    out.append((("pt", al), ("mu", ec_add(total, al), names)))
                    for j in range(1, len(names) + 1):
                        out.append((("nu", j, total, al, names), ("pt", al)))
            else:
                for al in pts:
                    other = ec_neg(ec_add(al, total))
                    if not other.infinity:
                        out.append((("pt", al), ("pt", other)))
        elif kind == "mu":
            c, names = desc[1], desc[2]
            for i, name in enumerate(names):
                rest = tuple(n for n in names if n != name)
                for p, _ in self.gs[name].divisor.terms:
                    out.append((("mu", ec_add(c, p), rest), ("pt", p)))
        elif kind == "nu":
            j, b1, b2, names = desc[1], desc[2], desc[3], desc[4]
            if len(names) >= 2:
                gj = names[j - 1]
                for i, name in enumerate(names):
                    if name == gj:
                        continue
                    rest = tuple(n for n in names if n != name)
                    jr = rest.index(gj) + 1
                    for q, _ in self.gs[name].divisor.terms:
                        out.append((("nu", jr, ec_add(b1, q), b2, rest), ("pt", q)))
        # both orders: products commute up to sign, the solver decides
        swapped = [(b, a) for a, b in out]
        return out + swapped


def _sorted_pts(pts):
    return tuple(sorted(pts, key=lambda p: p.key()))


# ---------------------------------------------------------------------------
# chain construction


def _materialize_word(ctx: FamilyContext, descs, coeff=1) -> BarChain:
    sums = [ctx.materialize(d) for d in descs]
    if any(s.is_zero() for s in sums):
        return BarChain()
    return BarChain.from_cycle_sums(sums, coeff)


class _Echelon:
    """Incremental exact row echelon over sparse vectors (key -> Fraction).

    Keys are replaced by their rank in first-appearance order, and a row's
    pivot is its least rank.  Each row also records the combination of
    added vectors it equals, as {tag: coefficient}.  Neither membership nor
    that combination depends on the key order: a vector becomes a row only
    when it is independent of the vectors added before it, and a vector in
    the span of independent vectors has exactly one combination over them.
    """

    def __init__(self):
        self.rank = {}  # key -> position of its first appearance
        self.rows = {}  # pivot rank -> (vector with pivot coefficient 1, combination)

    def reduce(self, vec):
        """(residual, combination) with residual = vec + sum_t c_t * added_t,
        keyed by rank; the residual is empty iff vec lies in the span."""
        rank = self.rank
        vec = {rank.setdefault(k, len(rank)): v for k, v in vec.items() if v}
        combo = {}
        while vec:
            pivot = min(vec)
            if pivot not in self.rows:
                break
            row, row_combo = self.rows[pivot]
            f = -vec[pivot]
            accumulate(vec, row.items(), f)
            accumulate(combo, row_combo.items(), f)
        return vec, combo

    def add(self, vec, tag) -> bool:
        vec, combo = self.reduce(vec)
        if not vec:
            return False
        combo[tag] = Fraction(1)
        pivot = min(vec)
        pv = vec[pivot]
        self.rows[pivot] = (
            {k: v / pv for k, v in vec.items()},
            {t: c / pv for t, c in combo.items()},
        )
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[0]


def _solve_exact(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs over sparse vectors (mappings
    key -> Fraction, such as BarChains).

    Returns the coefficient list, or None when inconsistent.  x is nonzero
    only on the columns independent of the earlier ones (the free variables
    are 0), so it is unique: the key order of `_Echelon` cannot move it.
    """
    ech = _Echelon()
    for j, col in enumerate(columns):
        ech.add(col, j)
    residual, combo = ech.reduce(rhs)
    if residual:
        return None
    return [-combo.get(j, Fraction(0)) for j in range(len(columns))]


@dataclass
class MotiveChain:
    """A bar cocycle with its construction data."""

    chain: BarChain
    layers: list  # list of (coeff, descriptor tuple) actually used
    context: FamilyContext
    leading: tuple  # the top descriptor
    kills: list = field(default_factory=list)  # KillCertificate records


def build_motive_chain(curve, gs, fixed=(), mode="fbar") -> MotiveChain:
    """Assemble the canonical cocycle with leading term eta^{fixed}(gs)."""
    ctx = FamilyContext(curve, gs, mode)
    names = tuple(g.name for g in gs)
    top = ("eta", _sorted_pts(tuple(fixed)), names)
    layers = [[(Fraction(1), (top,))]]
    chain = _materialize_word(ctx, (top,))
    if chain.is_zero():
        raise ChainConstructionError("leading family is zero")
    for step in range(len(gs) + len(fixed) + 4):
        residual = bar_differential(chain)
        if residual.is_zero():
            break
        ell = residual.lengths()[0]
        target = residual.component(ell)
        # candidates: splice every expandable slot of every layer-ell word
        cand_words = []
        seen = set()
        for coeff, descs in layers[-1]:
            for i, d in enumerate(descs):
                for left, right in ctx.expansions(d):
                    new = descs[:i] + (left, right) + descs[i + 1 :]
                    if new not in seen:
                        seen.add(new)
                        cand_words.append(new)
        cand_words.sort(key=lambda ds: tuple(desc_key(d) for d in ds))
        if not cand_words:
            raise ChainConstructionError(
                f"no candidates for residual at length {ell}", target
            )
        mats = [_materialize_word(ctx, descs) for descs in cand_words]
        columns = [bar_differential(mat).component(ell) for mat in mats]
        x = _solve_exact(columns, -target)
        if x is None:
            raise ChainConstructionError(
                f"contraction equations at length {ell} are inconsistent", target
            )
        # the whole layer is one accumulation
        layer = []
        items = list(chain.items())
        for xi, descs, mat in zip(x, cand_words, mats):
            if xi:
                layer.append((xi, descs))
                items.extend((w, xi * c) for w, c in mat.items())
        layers.append(layer)
        chain = BarChain(items)
    else:
        raise ChainConstructionError("chain construction did not terminate")

    ok, diff = verify_cocycle(chain)
    if not ok:
        raise ChainConstructionError("constructed chain is not a cocycle", diff)
    out = MotiveChain(chain, [w for layer in layers for w in layer], ctx, top)
    out.kills = kill_certificates(out)
    return out


# ---------------------------------------------------------------------------
# kill-cycle certificates: the triviality mechanism for the mu/nu families
#
# A single mu/nu word cannot be removed by a kill-cycle homotopy: the
# boundary of a kill cycle sweeps the whole divisor of one g, so only the
# swept combinations sum_p m_p mu^{p+shift} are exact (for generic supports
# the convolution equations force every coefficient to zero otherwise; the
# solver verifies this).  What the kill cycles certify, and what the engine
# checks exactly, is that each mu/nu family appearing in the chain embeds in
# a swept combination equal to the boundary of its kill cycle.


@dataclass
class KillCertificate:
    family: str  # descriptor key of the mu/nu family
    killer: str  # descriptor key of the kill cycle used
    check: KillCycleReport  # the swept combination inside d(killer)

    @property
    def exact(self) -> bool:
        """Every swept member is reproduced inside d(killer); the rest is
        the face tail."""
        return self.check.all_reproduced


def _chain_mu_nu_families(layers):
    fams = set()
    for _, descs in layers:
        for d in descs:
            if d[0] == "mu" and d[2]:
                fams.add(d)
            elif d[0] == "nu":
                fams.add(d)
    return sorted(fams, key=desc_key)


def kill_certificates(mc: "MotiveChain") -> list:
    """For every mu/nu family in the chain, certify the coboundary relation
    d(kill cycle) = swept family combination + explicit face tail, exactly.
    The check is the boundaries suite's own (formulas.verify_mu_killer and
    formulas.verify_nu_killer)."""
    ctx = mc.context
    out = []
    for d in _chain_mu_nu_families(mc.layers):
        if d[0] == "mu":
            _, c, names = d
            gs = ctx.g_tuple(names)
            # choose the sweep through the first divisor point of g_1
            shift = ec_add(c, ec_neg(gs[0].divisor.terms[0][0]))
            killer = ("kmu", 1, shift, names)
            check = verify_mu_killer(ctx.curve, gs, 1, shift)
        else:
            _, j, b1, b2, names = d
            killer = ("knu", j, b1, b2, names)
            check = verify_nu_killer(ctx.curve, ctx.g_tuple(names), j, b1, b2)
        out.append(KillCertificate(desc_key(d), desc_key(killer), check))
    return out


# ---------------------------------------------------------------------------
# comultiplication, comodule span, nontriviality


def comultiply(chain: BarChain):
    """Deconcatenation: list of (coeff, left BarWord, right BarWord)."""
    out = []
    for word, coeff in chain.items():
        for k in range(word.length + 1):
            left = BarWord(word.slots[:k], word.motives[:k])
            right = BarWord(word.slots[k:], word.motives[k:])
            out.append((coeff, left, right))
    return out


def comultiply_grouped(chain: BarChain):
    """Group the coproduct by the right tensor factor."""
    groups = {}
    for coeff, left, right in comultiply(chain):
        groups.setdefault(right, []).append((left, coeff))
    return {right: BarChain(parts) for right, parts in groups.items()}


_UNIT = BarWord((), ())


def _unit_groups(chain: BarChain, groups: dict):
    """The E (x) 1 and 1 (x) E groups of the coproduct, given its grouping
    by the right factor."""
    leading = groups.get(_UNIT, BarChain())
    trailing = BarChain((r, c) for c, l, r in comultiply(chain) if l.length == 0)
    return leading, trailing


def verify_counit(chain: BarChain) -> bool:
    leading, trailing = _unit_groups(chain, comultiply_grouped(chain))
    return leading == chain and trailing == chain


def verify_coassociativity(chain: BarChain) -> bool:
    """Deconcatenation is coassociative: compare both double splits."""
    first = LinComb(
        ((word.slots[:k], word.slots[k:m], word.slots[m:]), coeff)
        for word, coeff in chain.items()
        for k in range(word.length + 1)
        for m in range(k, word.length + 1)
    )
    # (psi x id) psi and (id x psi) psi both enumerate exactly these splits
    second = LinComb(
        ((left.slots[:k], left.slots[k:], right.slots), coeff)
        for coeff, left, right in comultiply(chain)
        for k in range(left.length + 1)
    )
    third = LinComb(
        ((left.slots, right.slots[:k], right.slots[k:]), coeff)
        for coeff, left, right in comultiply(chain)
        for k in range(right.length + 1)
    )
    return first == second == third


@dataclass
class ComultiplyReport:
    coassociative: bool
    leading_ok: bool  # the E (x) 1 group equals the chain
    trailing_ok: bool  # the 1 (x) E group equals the chain
    middle: list  # (point key, cocycle flag, leading-match flag)

    @property
    def counital(self) -> bool:
        return self.leading_ok and self.trailing_ok

    @property
    def passed(self) -> bool:
        return (
            self.counital
            and self.coassociative
            and all(c and m for _, c, m in self.middle)
        )


def comultiply_report(mc: MotiveChain) -> ComultiplyReport:
    """The grouped coproduct structure of the displayed comultiplication:
    leading chain (x) 1, trailing 1 (x) chain, and for every divisor point p
    a middle group (left sum) (x) [p] whose left sum is a cocycle with
    leading term the eta^p families of the reduced function tuples."""
    ctx = mc.context
    chain = mc.chain
    groups = comultiply_grouped(chain)
    leading, trailing = _unit_groups(chain, groups)
    middle = []
    names = mc.leading[2]
    for name in names:
        g = ctx.gs[name]
        rest = tuple(n for n in names if n != name)
        for p, _m in g.divisor.terms:
            pt_word_chain = BarChain.from_cycle_sums([decorate("eta_point", p)])
            left = BarChain()
            for w in pt_word_chain:
                if w in groups:
                    left = left + groups[w]
            if left.is_zero():
                middle.append((p.key(), False, False))
                continue
            is_cocycle, _ = verify_cocycle(left)
            lead = left.component(1)
            target = _materialize_word(
                ctx, (("eta", _sorted_pts(mc.leading[1] + (p,)), rest),)
            )
            ok = not target.is_zero() and _match_groups(lead, [("eta", p.key(), target)]).complete
            middle.append((p.key(), is_cocycle, ok))
    return ComultiplyReport(
        verify_coassociativity(chain), leading == chain, trailing == chain, middle
    )


def is_point_word(word: BarWord) -> bool:
    return all(s.dim == 0 and s.b == 1 and s.c == 0 for s in word.slots)


def final_layer_points(chain: BarChain):
    """The point entries of the longest-layer words (the chain's last term)."""
    if chain.is_zero():
        return []
    top = max(w.length for w in chain)
    pts = []
    for word, coeff in chain.terms:
        if word.length == top and is_point_word(word):
            pts.append((coeff, [s.ecoords[0].const for s in word.slots]))
    return pts


def _descriptor_motive(desc) -> PureMotive:
    kind = desc[0]
    if kind == "pt":
        return PureMotive(1, 0)
    if kind == "eta":
        return PureMotive(len(desc[2]), 1)
    if kind == "mu":
        return PureMotive(len(desc[2]) + 1, 0)
    if kind == "nu":
        return PureMotive(len(desc[4]) - 1, 1)
    raise ChainConstructionError(f"no motive label for {desc!r}")


def grading_coherent(mc: MotiveChain) -> bool:
    """Every layer word's motive labels tensor down to a sum containing the
    leading motive: the chain is graded by one pure motive."""
    target = _descriptor_motive(mc.leading)
    for _, descs in mc.layers:
        support = {_descriptor_motive(descs[0])}
        for d in descs[1:]:
            nxt = set()
            for V in support:
                nxt.update(clebsch_gordan(V, _descriptor_motive(d)))
            support = nxt
        if target not in support:
            return False
    return True


@dataclass
class NontrivialityCertificate:
    nontrivial: bool
    point: CurvePoint | None
    double: CurvePoint | None
    reason: str


def nontriviality_witness(chain: BarChain) -> NontrivialityCertificate:
    """The final layer is not a coboundary when some point class (b)-(-b) is
    non-principal, i.e. 2b != 0."""
    from .divisors import FormalDivisor, is_principal

    pts = final_layer_points(chain)
    if not pts:
        return NontrivialityCertificate(False, None, None, "no point words in the final layer")
    for _, points in pts:
        for b in points:
            if b.infinity:
                continue
            div = FormalDivisor.of(b.curve, [(b, 1), (ec_neg(b), -1)])
            if not is_principal(div):
                return NontrivialityCertificate(
                    True, b, ec_add(b, b), f"(P)-(-P) with P = {b.key()} has group-law sum 2P != 0"
                )
    return NontrivialityCertificate(
        False, None, None, "all final-layer points are 2-torsion; every (b)-(-b) is principal"
    )


# ---------------------------------------------------------------------------
# comodule span


@dataclass
class ComoduleSpanReport:
    members: list  # (label, BarChain)
    closed: bool
    failures: list


def comodule_span(mc: MotiveChain) -> ComoduleSpanReport:
    """The finite spanning set of the comodule the chain generates.

    The members are the chain itself, its layer chains (the grouped left
    factors of the coproduct, one per right word: the eta^p layers, then the
    deeper layers, down to the point classes) and the unit.  Closure: every
    grouped left factor of the coproduct of every member lies in the exact
    linear span of the members.
    """
    members = [("1", BarChain([(_UNIT, 1)]))]
    for right, left_sum in sorted(
        comultiply_grouped(mc.chain).items(), key=lambda t: (t[0].length, _word_key(t[0]))
    ):
        if left_sum.is_zero():
            continue
        lbl = "E" if right.length == 0 else f"layer<-[{right!r}]"
        members.append((lbl, left_sum))
    ech = _Echelon()
    for i, (_, ch) in enumerate(members):
        ech.add(ch, i)
    failures = []
    for lbl, ch in members:
        for right, left_sum in comultiply_grouped(ch).items():
            if left_sum.is_zero():
                continue
            if not ech.contains(left_sum):
                failures.append((lbl, repr(right)))
    return ComoduleSpanReport(members, not failures, failures)
