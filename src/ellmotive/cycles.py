"""Symbolic parametric cubical cycles on E^b x (P^1 - {1})^c.

A `ParamCycle` is the image of an affine parametrization: each E-coordinate
is a `divisors.PointExpr` sum(+-t_k) + const in named E-valued parameters,
and each cube coordinate is a function evaluated at such expressions
(identified with its divisor; nothing is ever evaluated in a function field).
A unary function at a constant argument is a constant slot: it has no faces.

Equality of cycle sums is canonical-form equality under the symmetries the
ambient algebra imposes:

* reparametrization (renaming and sign changes of parameters, those only
  cube coordinates see included) is free;
* negating one E-coordinate costs a sign (the (Z/2Z)^b alternation);
* permuting E-coordinates costs the sign character (the tensor identification
  over the symmetric group transports cycles with that sign);
* permuting cube coordinates costs the sign character (the G_c alternation).

A term carried to itself by an odd symmetry is zero.  This single rule is
what kills constant 2-torsion E-coordinates and the diagonal-type faces of
the boundary; a term with two equal or opposite E-coordinates, or a
constant one equal to its own negative, dies at sight.  `canonical_term`
finds the least normal form one E-position at a time, never the whole
orbit, and the term is zero iff that form is reached with both signs.  The
scan reads one table per term, built once, and works on it in `orbits`:
constant E-coordinates are placed without branching, and a parameter
whose sign no E-position has decided yet floats until the next one that
names it.  Every other E-coordinate, twins that serialize alike included,
is placed one position at a time; each surviving prefix's cube rows are
sorted once, and two equal rows reach that order with both signs.  No
expression is built until `_rebuild` renames the winner.

Every permuted copy of a term canonicalizes back with the sign character,
so the signed action of a projector is multiplication by its coefficient
sum: the eta and nu decorations are twice X and twice Z (see `decorate`).
The engine builds no group-algebra element and imports neither `symgrp`
nor `gl2`.

There is one serialization of expressions and cube coordinates under a
naming of the parameters (see `orbits._ser`); under an expression's own
names it is `PointExpr.key`.  The scan compares its candidates by it, and
reprs render it.  A canonical term's serialization under its own names
(`ParamCycle.key`) orders the sorted `terms` view of cycle sums and bar
words, which only the report edges read: reprs, the matcher's first-key rule
and its unmatched list, and the nontriviality witness.
The scan names the parameters t0, t1, .. itself, so the canonical form does
not depend on the parameter names a term was built with.

The cubical boundary takes, for each cube slot, the zero and pole faces of
the coordinate's divisor, solves the face equation (the class's affine
equation at the slot's arguments, `divisors.class_equation`) for one
parameter, and substitutes; signs follow the fixed convention
sum_k (-1)^(k-1) (d0_k - dinf_k), and the integral multiplicities enter as
ints.  Each slot's class equations are derived once per cycle: a face checks
that none of its cube coordinates is identically 0 or infinity by
substituting its pivot into the other slots' equations.  A constant slot's
equations are constants, so it gives no face, and it is degenerate where
one of them is the identity.

A product pair with a point class among its factors (no parameters, no
cube coordinates) needs no scan: the other factor is canonical, and the
point's constants merge into its sorted constant block (`_point_product`).
Every product the suites and the bar differential make has such a factor.

Where a point may sit is one predicate, `misplaced`: off every support up
to sign and off the 2- and 3-torsion.  Admissibility reads it for each
support point against the later functions, `build_family` for the decoration
points of X, and both decoration pickers in `formulas` for their candidates.

Where the memos live.  `canonical_term` keeps its results in the module's
`_canonical_cache` for the life of the process; only family construction
(`CycleSum.of`, from `build_family`/`decorate` through a context) goes
through it.  `term_faces`, `boundary` and `external_product` keep nothing:
each raw face or product is scanned once (`_scan`), or merged, and dropped,
so no raw cycle outlives the call that made it.  The scans of one boundary
share a memo of E-coordinate table rows, and its faces add up by the keys
of their least forms (`_least_form`), so only the terms that survive are
rebuilt; both go with the call.  What is
worth keeping lives on a `formulas.FamilyContext`, as long as it does, one
memo per fact: the boundary of each distinct canonical cycle and the
product of each distinct ordered pair, which the boundary-formula checks
and the bar differential both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .curves import CurvePoint, EllipticCurve, ec_add, ec_neg, ec_scalar_mul, is_two_torsion
from .curves import full_two_torsion
from .divisors import (
    DegeneracyError,
    DivisorError,
    FormalDivisor,
    PointExpr,
    ProductDivisorClass,
    class_equation,
    is_principal,
    make_fbar_divisor,
    make_fn_divisor,
    pullback_to_factor,
    render_expr,
)
from .lincomb import LinComb
from .orbits import (
    _cube_ser,
    _least_prefixes,
    _place_constants,
    _ser,
    _sorted_order,
    _term_table,
)


class CycleError(ValueError):
    """Structural errors in cycle construction."""


class AdmissibilityError(ValueError):
    """Raised when a construction is attempted with inadmissible data."""


# ---------------------------------------------------------------------------
# function specs: a cube coordinate is a function known only by its divisor


class _ProductSpec:
    """The face components of a spec, read off its divisor class on E^arity."""

    @cached_property
    def components(self) -> tuple:
        """Face components as (class form, coefficient), sorted; built once
        per spec, and not a field, so equality and hashing ignore it."""
        return self.divisor_class().terms


@dataclass(frozen=True)
class UserFunction(_ProductSpec):
    """A named rational function on E, given by its (principal) divisor."""

    name: str
    divisor: FormalDivisor

    def __post_init__(self):
        if not is_principal(self.divisor):
            raise DivisorError(f"divisor of {self.name} fails Abel's criterion")

    @cached_property
    def _hash(self) -> int:
        # the divisor hashes a frozenset of its terms: take it once per spec
        return hash((self.name, self.divisor))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and pickles recompute the hash (str hashes are per process)
        return UserFunction, (self.name, self.divisor)

    @property
    def arity(self) -> int:
        return 1

    def divisor_class(self) -> ProductDivisorClass:
        return pullback_to_factor(self.divisor, 1, 1)

    def sym_classes(self):
        return ((1,),)

    def spec_key(self) -> str:
        return f"user:{self.name}"


@dataclass(frozen=True)
class FbarSpec(_ProductSpec):
    """The function on E^n with divisor -n sum D_i(0) + sum Delta_{i,j} + Dsum(0)."""

    curve: EllipticCurve
    n: int

    @property
    def arity(self) -> int:
        return self.n

    def divisor_class(self) -> ProductDivisorClass:
        return make_fbar_divisor(self.curve, self.n)

    def sym_classes(self):
        # fully symmetric in all arguments
        return (tuple(range(1, self.n + 1)),)

    def spec_key(self) -> str:
        return f"fbar:{self.n}"


@dataclass(frozen=True)
class FnSpec(_ProductSpec):
    """F-bar_n corrected by h_n in coordinates 2..n (the product reading)."""

    curve: EllipticCurve
    n: int
    u: CurvePoint
    v: CurvePoint

    @property
    def arity(self) -> int:
        return self.n

    def divisor_class(self) -> ProductDivisorClass:
        return make_fn_divisor(self.curve, self.n, self.u, self.v).product

    def sym_classes(self):
        # coordinate 1 keeps its poles at 0, coordinates 2..n are interchangeable
        return ((1,), tuple(range(2, self.n + 1)))

    def spec_key(self) -> str:
        return f"fn:{self.n}:{self.u.key()}:{self.v.key()}"


@dataclass(frozen=True, slots=True)
class FunCoord:
    spec: object
    args: tuple  # tuple of PointExpr, length spec.arity

    def __post_init__(self):
        if len(self.args) != self.spec.arity:
            raise CycleError("argument count does not match the function arity")


# ---------------------------------------------------------------------------
# parametric cycles


@dataclass(frozen=True, slots=True)
class ParamCycle:
    curve: EllipticCurve
    params: tuple  # ordered tuple of names
    ecoords: tuple  # tuple of PointExpr
    qcoords: tuple  # tuple of FunCoord
    _hash: int = field(init=False, repr=False, compare=False)  # filled on first use
    _key: tuple = field(init=False, repr=False, compare=False)  # filled on first use

    def __post_init__(self):
        used = {n for e in self.ecoords for n, _ in e.coeffs}
        used.update(n for q in self.qcoords for a in q.args for n, _ in a.coeffs)
        declared = set(self.params)
        if used == declared:
            return
        if used - declared:
            raise CycleError(f"undeclared parameters {sorted(used - declared)}")
        if declared - used:
            raise CycleError(f"unused parameters {sorted(declared - used)}")

    @property
    def b(self) -> int:
        return len(self.ecoords)

    @property
    def c(self) -> int:
        return len(self.qcoords)

    @property
    def dim(self) -> int:
        return len(self.params)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.params, self.ecoords, self.qcoords))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # copies and pickles recompute the hash (str hashes are per process)
        return ParamCycle, (self.curve, self.params, self.ecoords, self.qcoords)

    def key(self) -> tuple:
        """The serialization under the cycle's own names: the sort key of
        canonical terms."""
        try:
            return self._key
        except AttributeError:
            k = (
                tuple(e.key() for e in self.ecoords),
                tuple(_cube_ser(_cube_row(q))[0] for q in self.qcoords),
            )
            object.__setattr__(self, "_key", k)
            return k

    def __repr__(self) -> str:
        eser, qser = self.key()
        es = ", ".join(render_expr(e) for e in eser)
        qs = ", ".join(_render_qcoord(q) for q in qser)
        return f"Cycle[({es}) ; ({qs})]"


# ---------------------------------------------------------------------------
# canonical forms


_canonical_cache: dict = {}


def canonical_term(cycle: ParamCycle):
    """Canonical representative and sign, or (None, 0) when the term dies.

    The candidates are the signed symmetries carrying the term to normal form:
    E-coordinates sorted by profile, each negated or not; parameters named
    t0, t1, .. in first-occurrence order along them, by |coeff| within one,
    signed to a positive first coefficient; those only cube coordinates see
    next, with both signs; cube slots sorted; ties in every order.  The least
    serialization wins.  It compares E-position by E-position, so candidates
    grow one position at a time and only those least there go on.  The term
    is zero iff the minimum is reached with both signs: if g1 and g2 give one
    normal form with opposite signs, g2^-1 g1 is an odd symmetry fixing the
    term, so g_min g2^-1 g1 reaches the minimum with g_min's sign reversed.

    The scan reads one table per term (`orbits._term_table`, `_cube_row`)
    and builds no expression until `_rebuild` renames the winner.  Results
    are kept in `_canonical_cache`; faces and products go through `_scan`,
    which keeps nothing.
    """
    cached = _canonical_cache.get(cycle)
    if cached is None:
        cached = _canonical_cache[cycle] = _scan(cycle, {})
    return cached


def _scan(cycle: ParamCycle, rows: dict):
    """`canonical_term` without the cache: the orbit scan itself.  `rows`
    memoizes E-coordinates' table rows across the scans of one call."""
    found = _least_form(cycle, rows)
    if found is None:
        return None, 0
    _, sign, winner = found
    return _rebuild(*winner), sign


def _least_form(cycle: ParamCycle, rows: dict):
    """(key, sign, `_rebuild` arguments) of the least candidate, or None if
    the term dies.  The key is the winner's serialization with its curve
    and specs, so equal keys rebuild equal canonical forms."""
    table = _term_table(cycle.ecoords, rows)
    prefixes = None if table is None else _least_prefixes(table, cycle.params)
    if prefixes is None:
        return None
    cube = [_cube_row(q) for q in cycle.qcoords]
    best, both = None, False  # (serialization, sign, naming, choices, cube order, argument orders)
    for sign, naming, chosen in prefixes:
        qsers, orders = zip(*[_cube_ser(row, naming) for row in cube]) if cube else ((), ())
        # two equal cube rows reach the sorted order with both signs
        qorder, qsign, tied = _sorted_order(qsers)
        ser = tuple(qsers[j] for j in qorder)
        if best is None or ser < best[0]:
            best, both = (ser, sign * qsign, naming, chosen, qorder, orders), tied
        elif ser == best[0] and (tied or sign * qsign != best[1]):
            both = True
    if both:
        return None
    ser, sign, naming, chosen, qorder, orders = best
    eser = tuple(_ser(*table[i][0][flip], naming) for i, flip in chosen)
    key = (cycle.curve, eser, ser, tuple(cycle.qcoords[j].spec for j in qorder))
    return key, sign, (cycle, chosen, qorder, orders, naming)


def _cube_row(q) -> tuple:
    """A cube coordinate's row of the scan's table: (serialization, None) if
    it is a constant slot (a unary function at a constant argument), else
    (spec key, (coefficients, constant key) of each argument, its symmetric
    classes as 0-based positions)."""
    if q.spec.arity == 1 and q.args[0].is_const():
        return ("K", q.spec.spec_key(), q.args[0].const.key()), None
    classes = tuple(tuple(i - 1 for i in cls) for cls in q.spec.sym_classes() if len(cls) > 1)
    return q.spec.spec_key(), tuple((a.coeffs, a.const.key()) for a in q.args), classes


def _render_qcoord(ser) -> str:
    if ser[0] == "K":
        return f"K({ser[1]}@{ser[2]})"
    return f"F({ser[1]};{','.join(render_expr(a) for a in ser[2])})"


def _rename(e: PointExpr, naming: dict, flip: int = 0) -> PointExpr:
    """e, negated if flipped, under a complete naming: e itself where that
    changes nothing.  The naming is a bijection onto t0, t1, .., so no two
    terms merge and none cancels."""
    if not (flip or e.coeffs):
        return e
    sign = -1 if flip else 1
    coeffs = tuple(sorted((naming[n][0], sign * naming[n][1] * c) for n, c in e.coeffs))
    if flip:
        return PointExpr(e.curve, coeffs, ec_neg(e.const))
    return e if coeffs == e.coeffs else PointExpr(e.curve, coeffs, e.const)


def _rebuild(cycle, chosen, qorder, orders, naming) -> ParamCycle:
    """The winning candidate: E-coordinate i negated where its flip is 1, in
    the chosen order, the cube slots in qorder with their arguments in the
    given orders (a constant slot has none and stays as it is), all renamed
    by the naming."""
    qcoords2 = []
    for j in qorder:
        q = cycle.qcoords[j]
        if orders[j] is not None:
            q = FunCoord(q.spec, tuple(_rename(q.args[i], naming) for i in orders[j]))
        qcoords2.append(q)
    names = tuple(f"t{i}" for i in range(len(naming)))
    ecoords = tuple(_rename(cycle.ecoords[i], naming, flip) for i, flip in chosen)
    return ParamCycle(cycle.curve, names, ecoords, tuple(qcoords2))


# ---------------------------------------------------------------------------
# cycle sums


class CycleSum(LinComb):
    """Exact linear combination of canonical cycles.

    `of` canonicalizes on entry through `canonical_term`'s cache; the plain
    constructor takes canonical cycles as they are.  A sum carries no motive
    label: a family's label lives on its descriptor (`formulas.desc_motive`).
    """

    __slots__ = ()
    sort_key = staticmethod(ParamCycle.key)

    @classmethod
    def of(cls, items) -> "CycleSum":
        out = []
        for cyc, coeff in items:
            if coeff:
                canon, sign = canonical_term(cyc)
                if canon is not None:
                    out.append((canon, coeff * sign))
        return cls(out)

    @classmethod
    def single(cls, cycle: ParamCycle) -> "CycleSum":
        return cls.of([(cycle, 1)])


# ---------------------------------------------------------------------------
# boundary


def _solve_face(cycle: ParamCycle, slot: int, eq: PointExpr, equations):
    """Impose eq = 0, eliminate one parameter, drop the cube slot.

    Returns the face cycle, or None when the equation has no solution on the
    family; raises DegeneracyError when it holds identically, cannot be
    solved with a unit pivot, or leaves a cube coordinate of the face
    identically 0 or infinity.  `equations` holds each slot's class
    equations; substituting the pivot into them gives the face's own, so
    none is derived again, and the check sums a constant only where the
    coefficients cancel (`PointExpr.vanishes_with`), which a constant slot's
    equations always do.
    """
    if eq.is_const():
        if eq.const.infinity:
            raise DegeneracyError(
                f"cube coordinate {slot} is identically degenerate on a face"
            )
        return None
    coeffs = dict(eq.coeffs)
    name = next((p for p in cycle.params if coeffs.get(p) in (1, -1)), None)
    if name is None:
        raise DegeneracyError(f"face equation {eq!r} has no unit pivot")
    repl = eq.solve(name)
    ecoords = tuple(e.substitute(name, repl) for e in cycle.ecoords)
    qcoords, kept = [], []
    for j, (q, eqs) in enumerate(zip(cycle.qcoords, equations), start=1):
        if j == slot:
            continue
        qcoords.append(FunCoord(q.spec, tuple(a.substitute(name, repl) for a in q.args)))
        kept.append(eqs)
    params = tuple(p for p in cycle.params if p != name)
    face = ParamCycle(cycle.curve, params, ecoords, tuple(qcoords))
    for j, eqs in enumerate(kept, start=1):
        for component_eq in eqs:
            if component_eq.vanishes_with(name, repl):
                raise DegeneracyError(
                    f"cube coordinate {j} became identically zero or infinite"
                )
    return face


def term_faces(cycle: ParamCycle):
    """All boundary faces of one cycle: list of (coefficient, face cycle).

    Each slot's class equations are derived once; its own faces solve them,
    and every face substitutes its pivot into the others'.  A constant
    slot's equations are constants: it gives no face, and it is degenerate
    where one of them is the identity."""
    equations = [
        [class_equation(component, q.args) for component, _ in q.spec.components]
        for q in cycle.qcoords
    ]
    out = []
    for slot, (q, eqs) in enumerate(zip(cycle.qcoords, equations), start=1):
        slot_sign = -1 if (slot - 1) % 2 else 1
        for (_, coeff), eq in zip(q.spec.components, eqs):
            if coeff.denominator != 1:
                raise CycleError("face multiplicities must be integers")
            face = _solve_face(cycle, slot, eq, equations)
            if face is None:
                continue
            # zeros (coeff > 0) enter with +, poles with -; multiplicity |coeff|
            out.append((slot_sign * int(coeff), face))
    return out


def boundary(s: CycleSum) -> CycleSum:
    """The cubical boundary; each raw face is scanned once and dropped.  The
    faces share most of their E-coordinates, so the scans share one memo of
    table rows.  Coefficients add up by the winners' keys, in the order a
    sum of canonical forms would hold them, and only the terms that do not
    cancel are rebuilt."""
    rows, acc = {}, {}  # key -> (coefficient, `_rebuild` arguments)
    for cyc, c in s.items():
        for fc, face in term_faces(cyc):
            found = _least_form(face, rows)
            if found is None:
                continue
            key, sign, winner = found
            coeff = acc[key][0] + c * fc * sign if key in acc else c * fc * sign
            if coeff:
                acc[key] = coeff, winner
            else:
                del acc[key]
    return CycleSum((_rebuild(*winner), coeff) for coeff, winner in acc.values())


# ---------------------------------------------------------------------------
# products and projector actions


def external_product(s1: CycleSum, s2: CycleSum) -> CycleSum:
    """Concatenate E-factors and cube factors; bilinear.

    A pair with a point class among its factors is merged without a scan
    (`_point_product`); any other pair is concatenated and scanned once
    (`_concatenate`), and nothing is kept.
    """
    items = []
    for z1, c1 in s1.items():
        for z2, c2 in s2.items():
            canon, sign = _point_product(z1, z2) or _scan(_concatenate(z1, z2), {})
            if canon is not None:
                items.append((canon, c1 * c2 * sign))
    return CycleSum(items)


def _concatenate(z1: ParamCycle, z2: ParamCycle) -> ParamCycle:
    """The raw product of two canonical terms: the left one's k parameters
    are t0..t<k-1>, so the right one's become t<k>, t<k+1>, .. in order, and
    one pair always builds the same cycle."""
    k = len(z1.params)
    naming = {p: (f"t{k + i}", 1) for i, p in enumerate(z2.params)}
    params = tuple(name for name, _ in naming.values())
    ecoords = tuple(_rename(e, naming) for e in z2.ecoords)
    qcoords = tuple(FunCoord(q.spec, tuple(_rename(a, naming) for a in q.args)) for q in z2.qcoords)
    return ParamCycle(
        z1.curve, z1.params + params, z1.ecoords + ecoords, z1.qcoords + qcoords
    )


def _point_product(z1: ParamCycle, z2: ParamCycle):
    """The canonical form and sign of z1 x z2 when a factor is a point class
    (no parameters, no cube coordinates), else None; (None, 0) when the
    product is zero.

    The other factor is canonical, and constant E-coordinates sort first
    without touching the naming of the rest, so the product is that factor
    with the point's constants merged into its sorted constant block, each
    on its orbit-least side (`_place_constants`).  The sign is the parity of
    that merge times the flips, and of a right point passing the other
    factor's parametric coordinates.  The product dies exactly when a
    constant is its own negative or equals another one up to sign
    (`_term_table`).
    """
    if not (z2.params or z2.qcoords):
        point, other, left = z2, z1, False
    elif not (z1.params or z1.qcoords):
        point, other, left = z1, z2, True
    else:
        return None
    m = next((i for i, e in enumerate(other.ecoords) if e.coeffs), other.b)
    consts = point.ecoords + other.ecoords[:m] if left else other.ecoords[:m] + point.ecoords
    table = _term_table(consts, {})
    if table is None:
        return None, 0
    _, sign, chosen, _ = _place_constants(table)
    if not left and point.b * (other.b - m) % 2:
        sign = -sign
    merged = tuple(-consts[i] if flip else consts[i] for i, flip in chosen)
    return ParamCycle(other.curve, other.params, merged + other.ecoords[m:], other.qcoords), sign


# ---------------------------------------------------------------------------
# placement: where a point may sit


_SMALL_TORSION = "is 2- or 3-torsion"


def misplaced(p, gs):
    """Why the families over gs cannot use the point p, or None: p or -p
    lies in some support, or p is 2- or 3-torsion (the identity included).
    Support membership goes first: a point it rejects costs no group-law
    step."""
    neg = ec_neg(p)
    for g in gs:
        if p in g.divisor or neg in g.divisor:
            return f"meets the support of {g.name}"
    if is_two_torsion(p) or ec_scalar_mul(3, p).infinity:
        return _SMALL_TORSION
    return None


def check_admissible(gs) -> tuple:
    """The violations of divisor-level admissibility of a function tuple,
    the same in both modes; empty when the tuple is admissible.

    Each support point must be placeable (`misplaced`) over the functions
    after its own, so the supports are disjoint up to sign and avoid the 2-
    and 3-torsion (the eta rows decorate X by every support point; fn mode's
    h_n lives on the nonzero 2-torsion).  No function may be even, and the
    supports hold at least 2n distinct points.
    """
    violations = []
    for i, g in enumerate(gs):
        hits = {}  # reason -> the keys of g's support points it names
        for p in g.divisor.support():
            why = misplaced(p, gs[i + 1 :])
            if why:
                hits.setdefault(why, []).append(p.key())
        for why, keys in hits.items():
            at = ", ".join(keys)
            violations.append(
                f"support of {g.name} meets excluded points {at}"
                if why == _SMALL_TORSION
                else f"support of {g.name} {why} up to sign at {at}"
            )
        if g.divisor.negate_points() == g.divisor:
            violations.append(f"{g.name} is even (divisor invariant under x -> -x)")
    distinct = set().union(*(g.divisor for g in gs))
    if len(distinct) < 2 * len(gs):
        violations.append(f"only {len(distinct)} distinct support points; need at least {2 * len(gs)}")
    return tuple(violations)


def _check_fixed_points(fixed, gs):
    for i, a in enumerate(fixed):
        why = misplaced(a, gs) or (a in fixed[:i] and "repeated")
        if why:
            raise AdmissibilityError(f"fixed point {a.key()} {why}")


def _check_b2(gs, j, b2):
    # b2 inside the divisor of g_j makes the constant slot g_j(b2) degenerate
    if b2 in gs[j - 1].divisor:
        raise AdmissibilityError(f"b2 = {b2.key()} lies in the divisor of {gs[j-1].name}")


# ---------------------------------------------------------------------------
# the cycle families


def _fspec(curve, N, mode):
    if mode == "fbar":
        return FbarSpec(curve, N)
    if mode == "fn":
        # h_n is built on the first two points of the full 2-torsion
        tors = full_two_torsion(curve)
        if len(tors) < 3:
            raise CycleError("fn mode needs a curve with full rational 2-torsion")
        return FnSpec(curve, N, tors[0], tors[1])
    raise CycleError(f"unknown mode {mode!r}")


def _ynames(n):
    return tuple(f"y{i}" for i in range(1, n + 1))


def _balance(curve, names, const) -> PointExpr:
    """-sum(names) - const: the coordinate that puts a family on the kernel
    of the group law."""
    return PointExpr.make(curve, [(p, -1) for p in names], ec_neg(const))


def build_family(kind, curve, gs, fixed=(), mode="fbar", j=None, b1=None, b2=None):
    """Construct the X, Y, or Z family over gs (n = len(gs)) as a single
    ParamCycle.  The tuple itself is checked once, by its `FamilyContext`.

    X(n, r): E-coordinates (x, -x - sum(y) - sum(a), y_1..y_n), cube
    coordinates (F_{n+1+r}(x, y, a), g_1(y_1), .., g_n(y_n)).
    Y(n, a):  ((-sum(y) - a), y_1..y_n; g_1(y_1)..g_n(y_n)).
    Z(n, j, b1, b2): x, (-x - sum_{i != j} y_i - b1 - b2), y's without y_j;
    the j-th cube coordinate is g_j at the constant argument b2, a constant
    slot.
    """
    n = len(gs)
    if kind == "X":
        r = len(fixed)
        if n + r < 1:
            raise CycleError("X needs n + r >= 1")
        _check_fixed_points(fixed, gs)
        asum = CurvePoint.at_infinity(curve)
        for a in fixed:
            asum = ec_add(asum, a)
        params = ("x",) + _ynames(n)
        x, *ys = (PointExpr.param(curve, p) for p in params)
        fargs = tuple([x] + ys + [PointExpr.constant(a) for a in fixed])
        qcoords = [FunCoord(_fspec(curve, n + 1 + r, mode), fargs)]
        qcoords += [FunCoord(g, (y,)) for g, y in zip(gs, ys)]
        return ParamCycle(curve, params, (x, _balance(curve, params, asum), *ys), tuple(qcoords))

    if kind == "Y":
        a = fixed[0] if fixed else CurvePoint.at_infinity(curve)
        params = _ynames(n)
        ys = [PointExpr.param(curve, p) for p in params]
        qcoords = tuple(FunCoord(g, (y,)) for g, y in zip(gs, ys))
        return ParamCycle(curve, params, (_balance(curve, params, a), *ys), qcoords)

    if kind == "Z":
        if j is None or b1 is None or b2 is None:
            raise CycleError("Z needs j, b1, b2")
        if not 1 <= j <= n:
            raise CycleError("Z index j out of range")
        _check_b2(gs, j, b2)
        params = ("x",) + tuple(f"y{i}" for i in range(1, n + 1) if i != j)
        x, *ys = (PointExpr.param(curve, p) for p in params)
        qcoords = tuple(
            FunCoord(g, (PointExpr.constant(b2) if i == j else PointExpr.param(curve, f"y{i}"),))
            for i, g in enumerate(gs, 1)
        )
        ecoords = (x, _balance(curve, params, ec_add(b1, b2)), *ys)
        return ParamCycle(curve, params, ecoords, qcoords)

    raise CycleError(f"unknown family kind {kind!r}")


def decorate(kind, cycle_or_point) -> CycleSum:
    """Projector decoration of the cycle families.

    eta and nu: the signed action of the transposed tabloid projector
    rho^t_{b-1,1} on a cycle with b E-coordinates (X over n functions has
    b = n + 2, Z has b = n + 1).  Its row group is {1, (1 b)}, and a permuted
    copy canonicalizes back with its sign, so the action is twice the cycle.
    mu: Y as is; eta_point: the divisor (p) - (-p).  The motive labels are
    `formulas.desc_motive`'s.
    """
    if kind == "eta_point":
        p = cycle_or_point
        if p.infinity:
            raise CycleError("eta_point needs a nonzero point")
        curve = p.curve
        plus = ParamCycle(curve, (), (PointExpr.constant(p),), ())
        minus = ParamCycle(curve, (), (PointExpr.constant(ec_neg(p)),), ())
        return CycleSum.of([(plus, 1), (minus, -1)])

    cycle = cycle_or_point
    if kind == "mu":
        return CycleSum.single(cycle)
    if kind in ("eta", "nu"):
        return CycleSum.single(cycle).scale(2)
    raise CycleError(f"unknown decoration kind {kind!r}")


# ---------------------------------------------------------------------------
# kill-cycle families (the two homotopy families of the triviality argument)


def build_mu_killer(curve, gs, shift: CurvePoint):
    """((-sum(y) - z - shift), y_1..y_n ; g_1(y_1)..g_n(y_n), g_1(z)).

    Its z-face sweeps sum_p m_p * mu^{p + shift}(gs), p in the divisor of
    g_1: the boundary reproduces the mu contributions.
    """
    params = _ynames(len(gs)) + ("z",)
    *ys, z = (PointExpr.param(curve, p) for p in params)
    qcoords = [FunCoord(g, (y,)) for g, y in zip(gs, ys)]
    qcoords.append(FunCoord(gs[0], (z,)))
    return ParamCycle(curve, params, (_balance(curve, params, shift), *ys), tuple(qcoords))


def build_nu_killer(curve, gs, j: int, shift: CurvePoint, b2: CurvePoint):
    """(x, (-x - sum(y) - shift - b2), y's without y_j ; g_1(y_1)..g_n(y_n), g_j(b2)).

    Its y_j-face sweeps the nu-family cycles Z(j, s + shift, b2), s in the
    divisor of g_j: the boundary reproduces the nu contributions.  The last
    cube coordinate is g_j at the constant argument b2, a constant slot, so
    it has no faces.
    """
    _check_b2(gs, j, b2)
    params = ("x",) + _ynames(len(gs))
    x, *ys = (PointExpr.param(curve, p) for p in params)
    ecoords = (x, _balance(curve, params, ec_add(shift, b2)), *ys[: j - 1], *ys[j:])
    qcoords = [FunCoord(g, (y,)) for g, y in zip(gs, ys)]
    qcoords.append(FunCoord(gs[j - 1], (PointExpr.constant(b2),)))
    return ParamCycle(curve, params, ecoords, tuple(qcoords))
