"""Bar-complex words and chains over the cycle engine.

A word is the tuple of its canonical cycles, one per tensor slot; the motive
labels of a chain's families live on their descriptors
(`formulas.desc_motive`).  The total differential is the reduced-bar
differential: internal boundaries per slot (`bar_faces`, same length) and
products of adjacent slots (`bar_products`, one slot shorter), with signs
determined by the cube-dimension parities (the convention compatible with
the face-sign Leibniz rule); D squares to zero.  D is computed slot by slot:
each distinct slot's boundary and each distinct adjacent pair's product
once, in the `cycles.SlotMemo` of the chain's context.

`build_motive_chain` assembles the canonical cocycle with a given leading
family: lower layers are generated mechanically by splicing in the terms of
the boundary-formula table that `formulas` verifies (`FamilyContext.expansions`,
in both tensor orders) and solving the contraction equations exactly, layer
by layer, block by block; the chain terminates in pure tensor words of point
classes.  Each step differentiates the chain from scratch, and the build
stops when that differential is zero: the loop's exit is the cocycle gate
that the suites' and the CLI's `cocycle` records report.
The mu/nu families the expansions bring in are certified trivial by their
kill cycles ("kill", d): `kill_certificates` matches each cycle's rows, the
family members its face sweeps, against its boundary (see there for why the
discharge lives at the family level), and the bar suite's
`kill-certificates` check applies `formulas.certifies` to them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .curves import CurvePoint, ec_add, ec_neg
from .cycles import SlotMemo
from .divisors import FormalDivisor, is_principal
from .formulas import (
    FamilyContext,
    _match_groups,
    _sorted_pts,
    desc_key,
    desc_motive,
    verify_expansion,
)
from .gl2 import tensor_supports
from .lincomb import LinComb, accumulate


class ChainConstructionError(ValueError):
    """The builder found no cocycle: the message names the failing step."""


# ---------------------------------------------------------------------------
# words and chains: a word is a tuple of canonical cycles


def _word_key(w: tuple):
    return tuple(s.key() for s in w)


def _word_repr(w: tuple) -> str:
    return " | ".join(repr(s) for s in w)


class BarChain(LinComb):
    """Exact linear combination of bar words."""

    __slots__ = ()
    sort_key = staticmethod(_word_key)

    @staticmethod
    def from_cycle_sums(sums) -> "BarChain":
        """Multilinear expansion of a tensor list of CycleSums into pure words."""
        items = []
        for picks in itertools.product(*[s.items() for s in sums]):
            c = 1
            for _, pc in picks:
                c *= pc
            items.append((tuple(p for p, _ in picks), c))
        return BarChain(items)

    def component(self, length: int) -> "BarChain":
        return self._like({w: c for w, c in self.items() if len(w) == length})

    def lengths(self):
        return sorted({len(w) for w in self})

    def __repr__(self) -> str:
        return "\n".join(f"{c} * [{_word_repr(w)}]" for w, c in self.terms) or "0"


# D is linear in each slot, so the word level only concatenates tuples and
# multiplies coefficients; the slot-level pieces come from `slots`, the
# memo of the chain's context (`ctx.slots`).  The sign of slot i is
# (-1)^(sum_{k<i} (c_k + 1)): it flips past each slot of even cube
# dimension.


def bar_faces(chain: BarChain, slots: SlotMemo) -> BarChain:
    """The internal-boundary part of D: each slot replaced by its boundary.
    Every face word keeps the length of its word."""
    items = []
    for word, coeff in chain.items():
        c = coeff
        for i, slot in enumerate(word):
            head, tail = word[:i], word[i + 1 :]
            faces = slots.boundary(slot).items()
            items.extend((head + (face,) + tail, c * fc) for face, fc in faces)
            if not slot.c % 2:
                c = -c
    return BarChain(items)


def bar_products(chain: BarChain, slots: SlotMemo) -> BarChain:
    """The adjacent-product part of D: two neighbouring slots replaced by
    their external product.  Every product word is one slot shorter."""
    items = []
    for word, coeff in chain.items():
        c = coeff
        for i in range(len(word) - 1):
            if not word[i].c % 2:
                c = -c
            head, tail = word[:i], word[i + 2 :]
            pairs = slots.product(word[i], word[i + 1]).items()
            items.extend((head + (prod,) + tail, c * pc) for prod, pc in pairs)
    return BarChain(items)


def bar_differential(chain: BarChain, slots: SlotMemo) -> BarChain:
    """Internal boundaries plus adjacent products, reduced-bar signs."""
    return bar_faces(chain, slots) + bar_products(chain, slots)


def verify_cocycle(chain: BarChain, slots: SlotMemo):
    """True iff the bar differential of the chain canonicalizes to zero."""
    diff = bar_differential(chain, slots)
    return diff.is_zero(), diff


# ---------------------------------------------------------------------------
# chain construction


def _materialize_word(ctx: FamilyContext, descs) -> BarChain:
    return BarChain.from_cycle_sums([ctx.materialize(d) for d in descs])


class _Echelon:
    """Incremental exact row echelon over sparse vectors (key -> int or Fraction).

    Keys are replaced by their rank in first-appearance order, and a row's
    pivot is its least rank.  Rows are scaled to pivot coefficient 1, and
    an integral quotient stays an int.  Each row also records the
    combination of added vectors it equals, as {tag: coefficient}.  Neither
    membership nor that combination depends on the key order: a vector
    becomes a row only when it is independent of the vectors added before
    it, and a vector in the span of independent vectors has exactly one
    combination over them.
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

    def add(self, vec, tag):
        vec, combo = self.reduce(vec)
        if not vec:
            return
        combo[tag] = 1
        pivot = min(vec)
        pv = vec[pivot]
        self.rows[pivot] = (
            {k: _quotient(v, pv) for k, v in vec.items()},
            {t: _quotient(c, pv) for t, c in combo.items()},
        )

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[0]


def _quotient(a, b=1):
    """The exact quotient a / b: an int when it is integral."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _blocks(columns):
    """The connected components of the columns: two columns are linked when
    they share a key.  Returns (block of each key, column indices of each
    block in increasing order).  Blocks are numbered by their first column,
    so nothing depends on hashes."""
    ids = {}  # key -> id, in first-appearance order
    parent = []  # id -> an id of the same block; a root is its own parent

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    heads = []  # one key id of each nonempty column
    for col in columns:
        head = None
        for k in col:
            i = ids.get(k)
            if i is None:
                i = ids[k] = len(parent)
                parent.append(i)
            if head is None:
                head = i
            else:
                parent[find(i)] = find(head)
        heads.append(head)
    block_of_root = {}
    members = []
    for j, head in enumerate(heads):
        if head is None:
            continue  # an empty column is 0 in every solution
        root = find(head)
        if root not in block_of_root:
            block_of_root[root] = len(members)
            members.append([])
        members[block_of_root[root]].append(j)
    return {k: block_of_root[find(i)] for k, i in ids.items()}, members


def _solve_exact(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs over sparse vectors (mappings
    key -> int or Fraction, such as BarChains).

    Returns the coefficient list, or None when inconsistent.  x is nonzero
    only on the columns independent of the earlier ones (the free variables
    are 0), so it is unique: the key order of `_Echelon` cannot move it.

    The system splits into blocks, the connected components of the columns
    under shared keys.  Blocks share no keys, so a column is independent of
    the earlier columns exactly when it is independent of the earlier
    columns of its block: eliminating each block on its own `_Echelon`
    (columns in global order) gives the same x as one echelon over all
    columns, and the system is consistent iff every block is and no key of
    the rhs lies outside every column.

    The split is for time and memory, not for x: one echelon over all
    columns gave criterion 12's n=4 chain unchanged, with a 115.6 s solve
    and 506 MB peak RSS against 25.4 s and 339 MB in blocks (2-vCPU VM; n=3
    did not differ).  Likely, unconfirmed: `_Echelon.reduce` takes min(vec)
    over the whole rhs per pivot step, and each block's echelon is freed.
    """
    block_of, members = _blocks(columns)
    parts = [{} for _ in members]
    for k, v in rhs.items():
        if v:
            if k not in block_of:
                return None
            parts[block_of[k]][k] = v
    x = [0] * len(columns)
    for cols, part in zip(members, parts):
        ech = _Echelon()
        for j in cols:
            ech.add(columns[j], j)
        residual, combo = ech.reduce(part)
        if residual:
            return None
        for j, c in combo.items():
            x[j] = _quotient(-c)
    return x


@dataclass
class MotiveChain:
    """A bar cocycle with its construction data."""

    chain: BarChain
    layers: list  # list of (coeff, descriptor tuple) actually used
    context: FamilyContext
    leading: tuple  # the top descriptor


def build_motive_chain(curve, gs, fixed=(), mode="fbar") -> MotiveChain:
    """Assemble the canonical cocycle with leading term eta^{fixed}(gs).

    Each step differentiates the whole chain with `verify_cocycle`; when
    D(chain) is zero the chain is returned, so that test is the build's
    gate.  Otherwise the step solves for the next layer against the shortest
    part of D(chain), at length ell: a candidate word has length ell + 1, so
    its column is its adjacent products alone.  A chain still open after the
    last step raises ChainConstructionError.
    """
    ctx = FamilyContext(curve, gs, mode)
    top = ("eta", _sorted_pts(fixed), ctx.names)
    layers = [[(1, (top,))]]
    chain = _materialize_word(ctx, (top,))
    if chain.is_zero():
        raise ChainConstructionError("leading family is zero")
    for _ in range(len(gs) + len(fixed) + 4):
        closed, residual = verify_cocycle(chain, ctx.slots)
        if closed:
            break
        ell = residual.lengths()[0]
        target = residual.component(ell)
        # candidates: splice every expandable slot of every layer-ell word
        cand_words = []
        seen = set()
        for _, descs in layers[-1]:
            for i, d in enumerate(descs):
                # both orders: products commute up to sign, the solver decides
                rows = [factors for *_, factors in ctx.expansions(d)]
                for factors in rows + [f[::-1] for f in rows]:
                    new = descs[:i] + factors + descs[i + 1 :]
                    if new not in seen:
                        seen.add(new)
                        cand_words.append(new)
        cand_words.sort(key=lambda ds: tuple(desc_key(d) for d in ds))
        if not cand_words:
            raise ChainConstructionError(f"no candidates for residual at length {ell}")
        mats = [_materialize_word(ctx, descs) for descs in cand_words]
        # a candidate is one slot longer than the target, so the length-ell
        # part of its differential is its products; its faces stay longer
        columns = [bar_products(mat, ctx.slots) for mat in mats]
        if any(len(w) != ell for col in columns for w in col):
            raise ChainConstructionError(f"candidate products miss the residual length {ell}")
        x = _solve_exact(columns, -target)
        if x is None:
            raise ChainConstructionError(f"contraction equations at length {ell} are inconsistent")
        layer, picked = [], []
        for xi, descs, mat in zip(x, cand_words, mats):
            if xi:
                layer.append((xi, descs))
                picked.extend((w, _quotient(xi * c)) for w, c in mat.items())
        layers.append(layer)
        chain = chain + BarChain(picked)
    else:
        raise ChainConstructionError("chain construction did not terminate")
    return MotiveChain(chain, [w for layer in layers for w in layer], ctx, top)


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


def kill_certificates(mc: "MotiveChain") -> list:
    """For every mu/nu family d in the chain, in key order, certify the
    coboundary relation d(kill cycle) = swept family combination + explicit
    face tail, exactly: (d, the `formulas.verify_expansion` report of its
    kill cycle ("kill", d)), run in the chain's context.  `formulas.certifies`
    of the report is the certificate and `len(unmatched)` the face tail."""
    ctx = mc.context
    fams = {d for _, descs in mc.layers for d in descs if d[0] == "nu" or (d[0] == "mu" and d[2])}
    return [(d, verify_expansion(ctx, ("kill", d))) for d in sorted(fams, key=desc_key)]


# ---------------------------------------------------------------------------
# comultiplication, comodule span, nontriviality


def comultiply(chain: BarChain):
    """Deconcatenation: list of (coeff, left word, right word)."""
    return [
        (coeff, word[:k], word[k:]) for word, coeff in chain.items() for k in range(len(word) + 1)
    ]


def comultiply_grouped(chain: BarChain):
    """Group the coproduct by the right tensor factor."""
    groups = {}
    for coeff, left, right in comultiply(chain):
        groups.setdefault(right, []).append((left, coeff))
    return {right: BarChain(parts) for right, parts in groups.items()}


_UNIT = ()


def _unit_groups(chain: BarChain, groups: dict):
    """The E (x) 1 and 1 (x) E groups of the coproduct, given its grouping
    by the right factor."""
    leading = groups.get(_UNIT, BarChain())
    trailing = BarChain((r, c) for c, l, r in comultiply(chain) if not l)
    return leading, trailing


def verify_coassociativity(chain: BarChain) -> bool:
    """Deconcatenation is coassociative: compare both double splits."""
    first = LinComb(
        ((word[:k], word[k:m], word[m:]), coeff)
        for word, coeff in chain.items()
        for k in range(len(word) + 1)
        for m in range(k, len(word) + 1)
    )
    # (psi x id) psi and (id x psi) psi both enumerate exactly these splits
    second = LinComb(
        ((left[:k], left[k:], right), coeff)
        for coeff, left, right in comultiply(chain)
        for k in range(len(left) + 1)
    )
    third = LinComb(
        ((left, right[:k], right[k:]), coeff)
        for coeff, left, right in comultiply(chain)
        for k in range(len(right) + 1)
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
    for _, _, _, (left, right) in ctx.expansions(mc.leading):
        if left[0] != "eta":
            continue  # only the divisor-point terms eta^{p}(rest) (x) [p]
        p = right[1]
        left_sum = BarChain()
        for w in BarChain.from_cycle_sums([ctx.materialize(right)]):
            if w in groups:
                left_sum = left_sum + groups[w]
        if left_sum.is_zero():
            middle.append((p.key(), False, False))
            continue
        is_cocycle, _ = verify_cocycle(left_sum, ctx.slots)
        target = _materialize_word(ctx, (left,))
        ok = (
            not target.is_zero()
            and _match_groups(left_sum.component(1), [("eta", p.key(), target)]).complete
        )
        middle.append((p.key(), is_cocycle, ok))
    return ComultiplyReport(
        verify_coassociativity(chain), leading == chain, trailing == chain, middle
    )


def is_point_word(word: tuple) -> bool:
    return all(s.dim == 0 and s.b == 1 and s.c == 0 for s in word)


def final_layer_points(chain: BarChain):
    """The point entries of the longest-layer words (the chain's last term)."""
    if chain.is_zero():
        return []
    top = max(len(w) for w in chain)
    pts = []
    for word, coeff in chain.terms:
        if len(word) == top and is_point_word(word):
            pts.append((coeff, [s.ecoords[0].const for s in word]))
    return pts


def grading_coherent(mc: MotiveChain) -> bool:
    """Every layer word's motive labels tensor down to a sum containing the
    leading motive: the chain is graded by one pure motive."""
    target = desc_motive(mc.leading)
    labels = {tuple(desc_motive(d) for d in descs) for _, descs in mc.layers}
    return all(tensor_supports(ls, target) for ls in labels)


@dataclass
class NontrivialityCertificate:
    nontrivial: bool
    point: CurvePoint | None
    double: CurvePoint | None
    reason: str


def non_principal_point(points) -> CurvePoint | None:
    """The first point b with (b)-(-b) non-principal, i.e. 2b != 0, or None."""
    for b in points:
        if not is_principal(FormalDivisor.of(b.curve, [(b, 1), (ec_neg(b), -1)])):
            return b
    return None


def nontriviality_witness(chain: BarChain) -> NontrivialityCertificate:
    """The final layer is not a coboundary when some point class (b)-(-b) is
    non-principal, i.e. 2b != 0."""
    pts = final_layer_points(chain)
    if not pts:
        return NontrivialityCertificate(False, None, None, "no point words in the final layer")
    b = non_principal_point(p for _, points in pts for p in points)
    if b is None:
        return NontrivialityCertificate(
            False, None, None, "all final-layer points are 2-torsion; every (b)-(-b) is principal"
        )
    return NontrivialityCertificate(
        True, b, ec_add(b, b), f"(P)-(-P) with P = {b.key()} has group-law sum 2P != 0"
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
        comultiply_grouped(mc.chain).items(), key=lambda t: (len(t[0]), _word_key(t[0]))
    ):
        if left_sum.is_zero():
            continue
        lbl = "E" if not right else f"layer<-[{_word_repr(right)}]"
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
                failures.append((lbl, _word_repr(right)))
    return ComoduleSpanReport(members, not failures, failures)
