"""Symbolic parametric cubical cycles on E^b x (P^1 - {1})^c.

A `ParamCycle` is the image of an affine parametrization: each E-coordinate
is an expression sum(+-t_k) + const in named E-valued parameters, each cube
coordinate is either a function evaluated at such expressions (identified
with its divisor; nothing is ever evaluated in a function field) or a
symbolic constant.

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
the boundary.  `canonical_term` finds the least normal form one E-position
at a time, never the whole orbit, and the term is zero iff that form is
reached with both signs.  A parameter whose sign no E-position has decided
yet floats until the next one that names it, so undecided signs cost no
branching.  A canonical form is marked and is never scanned again, and the
signed action of a projector is multiplication by its coefficient sum, since
every permuted copy canonicalizes back with the sign character.

There is one serialization of expressions and cube coordinates under a
naming of the parameters (see `_expr_ser`).  The scan compares its
candidates by it, and reprs render it.  A canonical term's serialization
under its own names (`ParamCycle.key`) orders the sorted `terms` view of
cycle sums and bar words, which only the report edges read: reprs, the
matcher's first-key rule and its unmatched list, and the nontriviality
witness.
The scan names the parameters t0, t1, .. itself, so the canonical form does
not depend on the parameter names a term was built with.

The cubical boundary takes, for each cube slot, the zero and pole faces of
the coordinate's divisor, solves the face equation for one parameter, and
substitutes; signs follow the fixed convention sum_k (-1)^(k-1) (d0_k - dinf_k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .curves import CurvePoint, EllipticCurve, ec_add, ec_neg, ec_scalar_mul, is_two_torsion
from .curves import full_two_torsion
from .divisors import (
    DegeneracyError,
    DivisorError,
    FormalDivisor,
    ProductDivisorClass,
    is_principal,
    make_fbar_divisor,
    make_fn_divisor,
)
from .gl2 import PureMotive
from .lincomb import LinComb
from .symgrp import GroupAlgebraElement, Permutation, YoungShape, transpose_projector


class CycleError(ValueError):
    """Structural errors in cycle construction."""


class AdmissibilityError(ValueError):
    """Raised when a construction is attempted with inadmissible data."""

    def __init__(self, report):
        super().__init__("; ".join(report.violations))
        self.report = report


# ---------------------------------------------------------------------------
# affine E-valued expressions


@dataclass(frozen=True, slots=True)
class PointExpr:
    """sum(c_k * t_k) + const, with integer coefficients and a point constant."""

    curve: EllipticCurve
    coeffs: tuple = ()  # tuple of (name, int), sorted by name, nonzero
    const: CurvePoint = None

    @staticmethod
    def make(curve, items, const=None) -> "PointExpr":
        acc = {}
        for name, c in items:
            acc[name] = acc.get(name, 0) + c
        coeffs = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
        return PointExpr(curve, coeffs, const if const is not None else CurvePoint.at_infinity(curve))

    @staticmethod
    def param(curve, name: str) -> "PointExpr":
        return PointExpr.make(curve, [(name, 1)])

    @staticmethod
    def constant(p: CurvePoint) -> "PointExpr":
        return PointExpr.make(p.curve, [], p)

    def params(self):
        return [n for n, _ in self.coeffs]

    def is_const(self) -> bool:
        return not self.coeffs

    def __neg__(self) -> "PointExpr":
        return PointExpr(self.curve, tuple((n, -c) for n, c in self.coeffs), ec_neg(self.const))

    def __add__(self, other: "PointExpr") -> "PointExpr":
        return PointExpr.make(
            self.curve, list(self.coeffs) + list(other.coeffs), ec_add(self.const, other.const)
        )

    def __sub__(self, other: "PointExpr") -> "PointExpr":
        return self + (-other)

    def sub_point(self, q: CurvePoint) -> "PointExpr":
        return PointExpr(self.curve, self.coeffs, ec_add(self.const, ec_neg(q)))

    def scale(self, k: int) -> "PointExpr":
        if k == 0:
            return PointExpr.make(self.curve, [])
        return PointExpr(
            self.curve, tuple((n, k * c) for n, c in self.coeffs), ec_scalar_mul(k, self.const)
        )

    def substitute(self, name: str, repl: "PointExpr") -> "PointExpr":
        c = dict(self.coeffs).get(name)
        if c is None:
            return self
        rest = PointExpr(self.curve, tuple((n, v) for n, v in self.coeffs if n != name), self.const)
        return rest + repl.scale(c)

    def rename(self, mapping: dict) -> "PointExpr":
        return PointExpr.make(
            self.curve, [(mapping.get(n, n), c) for n, c in self.coeffs], self.const
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    def __repr__(self) -> str:
        return _render_expr(_expr_ser(self))


# ---------------------------------------------------------------------------
# function specs: a cube coordinate is a function known only by its divisor


@dataclass(frozen=True)
class UserFunction:
    """A named rational function on E, given by its (principal) divisor."""

    name: str
    divisor: FormalDivisor

    def __post_init__(self):
        if not is_principal(self.divisor):
            raise DivisorError(f"divisor of {self.name} fails Abel's criterion")

    @property
    def arity(self) -> int:
        return 1

    def components(self):
        """Face components as (kind tuple, coefficient)."""
        return [(("D", 1, p), c) for p, c in self.divisor.terms]

    def sym_classes(self):
        return ((1,),)

    def spec_key(self) -> str:
        return f"user:{self.name}"


class _ProductSpec:
    """The face components of a spec whose divisor is a product class."""

    @cached_property
    def _components(self) -> tuple:
        # built once per spec; not a field, so equality and hashing ignore it
        return self.divisor_class().terms

    def components(self):
        """Face components as (kind tuple, coefficient), sorted."""
        return self._components


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


@dataclass(frozen=True, slots=True)
class ConstCoord:
    """A function evaluated at a fixed point; faces on it are empty."""

    spec: object
    point: CurvePoint


# ---------------------------------------------------------------------------
# parametric cycles


@dataclass(frozen=True, slots=True)
class ParamCycle:
    curve: EllipticCurve
    params: tuple  # ordered tuple of names
    ecoords: tuple  # tuple of PointExpr
    qcoords: tuple  # tuple of FunCoord | ConstCoord
    _hash: int = field(init=False, repr=False, compare=False)  # filled on first use
    _key: tuple = field(init=False, repr=False, compare=False)  # filled on first use
    _canonical: bool = field(init=False, repr=False, compare=False)  # set by _rebuild only

    def __post_init__(self):
        used = set()
        for e in self.ecoords:
            used.update(e.params())
        for q in self.qcoords:
            if isinstance(q, FunCoord):
                for a in q.args:
                    used.update(a.params())
        declared = set(self.params)
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

    @property
    def codim(self) -> int:
        return self.b + self.c - self.dim

    def rename_params(self, mapping: dict) -> "ParamCycle":
        ecoords = tuple(e.rename(mapping) for e in self.ecoords)
        qcoords = tuple(
            FunCoord(q.spec, tuple(a.rename(mapping) for a in q.args))
            if isinstance(q, FunCoord)
            else q
            for q in self.qcoords
        )
        return ParamCycle(self.curve, tuple(mapping.get(p, p) for p in self.params), ecoords, qcoords)

    def permute_ecoords(self, sigma: Permutation) -> "ParamCycle":
        inv = sigma.inverse()
        ecoords = tuple(self.ecoords[inv(i) - 1] for i in range(1, self.b + 1))
        return ParamCycle(self.curve, self.params, ecoords, self.qcoords)

    def negate_ecoord(self, i: int) -> "ParamCycle":
        ecoords = list(self.ecoords)
        ecoords[i - 1] = -ecoords[i - 1]
        return ParamCycle(self.curve, self.params, tuple(ecoords), self.qcoords)

    def permute_qcoords(self, sigma: Permutation) -> "ParamCycle":
        inv = sigma.inverse()
        qcoords = tuple(self.qcoords[inv(i) - 1] for i in range(1, self.c + 1))
        return ParamCycle(self.curve, self.params, self.ecoords, qcoords)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.params, self.ecoords, self.qcoords))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # copies and pickles recompute the hash (str hashes are per process)
        # and drop the canonical mark
        return ParamCycle, (self.curve, self.params, self.ecoords, self.qcoords)

    def key(self) -> tuple:
        """The serialization under the cycle's own names: the sort key of
        canonical terms."""
        try:
            return self._key
        except AttributeError:
            k = (
                tuple(_expr_ser(e) for e in self.ecoords),
                tuple(_qcoord_ser(q)[0] for q in self.qcoords),
            )
            object.__setattr__(self, "_key", k)
            return k

    def __repr__(self) -> str:
        eser, qser = self.key()
        es = ", ".join(_render_expr(e) for e in eser)
        qs = ", ".join(_render_qcoord(q) for q in qser)
        return f"Cycle[({es}) ; ({qs})]"


# ---------------------------------------------------------------------------
# canonical forms


def _ecoord_profile(pair) -> tuple:
    """What no symmetry changes in an E-coordinate, given as (e, -e)."""
    e, neg = pair
    orbit = min(e.const.key(), neg.const.key())
    if e.is_const():
        return ("c", orbit)
    return ("x", tuple(sorted(abs(c) for _, c in e.coeffs)), orbit)


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

    A cycle this function returned is its own canonical form with sign +1;
    `_rebuild` marks it, and it comes back as it is, without a lookup.
    """
    if getattr(cycle, "_canonical", False):
        return cycle, 1
    cached = _canonical_cache.get(cycle)
    if cached is not None:
        return cached
    signed = [(e, -e) for e in cycle.ecoords]  # indexed by flip: 0 keeps, 1 negates
    qcoords = [_const_collapse(q) for q in cycle.qcoords]
    best, both = None, False  # (serialization, sign, naming, choices, cube order)
    prefixes = _least_prefixes(signed, cycle.params)
    for sign, naming, chosen in prefixes or ():
        qsers = [_qcoord_ser(q, naming)[0] for q in qcoords]
        for qorder, qsign in _sorted_arrangements(qsers):
            ser = tuple(qsers[j] for j in qorder)
            if best is None or ser < best[0]:
                best, both = (ser, sign * qsign, naming, chosen, qorder), False
            elif ser == best[0] and sign * qsign != best[1]:
                both = True
    if prefixes is None or both:
        result = (None, 0)
    else:
        _, sign, naming, chosen, qorder = best
        ecoords = [signed[i][flip] for i, flip in chosen]
        result = (_rebuild(cycle, ecoords, qcoords, qorder, naming), sign)
    _canonical_cache[cycle] = result
    return result


def _least_prefixes(signed, params):
    """(sign, naming, ((index, flip), ..)) of the candidates' least E-parts,
    with every naming of the parameters only cube coordinates see; None if
    the term dies already.

    A one-parameter coordinate whose constant is its own negative (0 or
    2-torsion) serializes alike under both flips while its parameter is
    fresh.  It is placed once, with the positive coefficient, and its
    parameter's sign floats (sign 0 in the naming; the state's sign is the
    one for +1).  The next coordinate naming the parameter fixes that sign
    by `_settle`; signs still floating after the last position take both.
    """
    profiles = [_ecoord_profile(pair) for pair in signed]
    self_negating = [
        len(e.coeffs) == 1 and e.const.key() == neg.const.key() for e, neg in signed
    ]
    states = [(0, 1, {}, ())]  # (used indices as a bitmask, sign, naming, choices)
    for profile in sorted(profiles):
        least, kept = None, {}
        for used, sign, naming, chosen in states:
            for i, p in enumerate(profiles):
                if used >> i & 1 or p != profile:
                    continue
                # i lands after every used index: one inversion per used index above i
                s = -sign if (used >> i).bit_count() % 2 else sign
                floats = self_negating[i] and signed[i][0].coeffs[0][0] not in naming
                for flip in (0, 1):
                    e = signed[i][flip]
                    if floats and e.coeffs[0][1] < 0:
                        continue  # the other flip stands for both
                    ser = _expr_ser(e, naming)  # the same under every extension
                    if least is None or ser < least:
                        least, kept = ser, {}
                    if ser != least:
                        continue
                    for ext in _extend_naming(naming, e.coeffs):
                        ext, s2, placed = _settle(ext, -s if flip else s, chosen, e.coeffs, signed)
                        if floats:  # its one parameter was fresh: ext is a new dict
                            name = e.coeffs[0][0]
                            ext[name] = (ext[name][0], 0)
                        # same placed set and naming: same completions; opposite signs: zero
                        state = (used | 1 << i, s2, ext, placed + ((i, flip),))
                        key = (state[0], frozenset(ext.items()))
                        if kept.setdefault(key, state)[1] != state[1]:
                            return None
        states = kept.values()
    # parameters only cube slots see: every order (all tie at |1|), both signs
    rest = [p for p in params if p not in next(iter(states))[2]]
    out = []
    for _, sign, naming, chosen in states:
        floating = [n for n, (_, s) in naming.items() if not s]
        # a coefficient -1 settles a floating sign to +1, a coefficient +1 to -1
        for coeffs in itertools.product((-1, 1), repeat=len(floating)):
            settled, s, placed = _settle(naming, sign, chosen, zip(floating, coeffs), signed)
            for signs in itertools.product((1, -1), repeat=len(rest)):
                for full in _extend_naming(settled, list(zip(rest, signs))):
                    out.append((s, full, placed))
    return out


def _settle(naming, sign, chosen, coeffs, signed):
    """Fix each floating sign among the coefficients so that its coefficient
    is negative: the least serialization, since the names in one expression
    are distinct.  A sign -1 negates the coordinate that floated it, the
    first placed one naming the parameter.  Returns (naming, sign, choices)."""
    for n, c in coeffs:
        name, s = naming[n]
        if s:
            continue
        naming = dict(naming)
        if c < 0:
            naming[n] = (name, 1)
            continue
        naming[n] = (name, -1)
        k = next(k for k, (j, _) in enumerate(chosen) if n in signed[j][0].params())
        j, flip = chosen[k]
        chosen = chosen[:k] + ((j, 1 - flip),) + chosen[k + 1 :]
        sign = -sign
    return naming, sign, chosen


def _extend_naming(naming: dict, coeffs):
    """Every extension of the naming {name: (new name, sign)} to the new
    parameters among the coefficients: they take the next names in order of
    |coeff|, ties in every order, each signed to a positive coefficient."""
    fresh = sorted((t for t in coeffs if t[0] not in naming), key=lambda t: abs(t[1]))
    if not fresh:
        yield naming
        return
    groups = [list(g) for _, g in itertools.groupby(fresh, key=lambda t: abs(t[1]))]
    for choice in itertools.product(*map(itertools.permutations, groups)):
        ext = dict(naming)
        for n, c in itertools.chain.from_iterable(choice):
            ext[n] = (f"t{len(ext)}", 1 if c > 0 else -1)
        yield ext


def _sorted_arrangements(keys):
    """Every order of the positions that sorts the keys, equal keys permuted
    in all ways, each with its parity."""
    blocks = []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if blocks and keys[blocks[-1][-1]] == keys[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    for choice in itertools.product(*[list(itertools.permutations(block)) for block in blocks]):
        arrangement = [i for block in choice for i in block]
        inversions = sum(i > j for i, j in itertools.combinations(arrangement, 2))
        yield arrangement, -1 if inversions % 2 else 1


def _const_collapse(q):
    """A unary function at a constant argument is a constant coordinate."""
    if isinstance(q, FunCoord) and q.spec.arity == 1 and q.args[0].is_const():
        return ConstCoord(q.spec, q.args[0].const)
    return q


# The serialization: an expression under a naming {name: (new name, sign)},
# or under its own names (naming None), is (sorted (new name, sign * coeff)
# pairs, constant key); parameters the naming lacks take the next names by
# |coeff| and coefficient |coeff|, as under every `_extend_naming` of it, and
# a floating sign (0) takes the negative coefficient, as it settles.  A
# cube coordinate is ("K", spec key, point key) or ("F", spec key, argument
# serializations), the arguments of each symmetric class sorted.  The scan
# compares candidates by it, a cycle under its own names sorts sums by it,
# and reprs render it.


def _expr_ser(e: PointExpr, naming: dict = None):
    if naming is None:  # own names: the coefficients are already sorted pairs
        return e.coeffs, e.const.key()
    items, fresh = [], []
    for n, c in e.coeffs:
        named = naming.get(n)
        if named is None:
            fresh.append(abs(c))
        else:
            items.append((named[0], named[1] * c or -abs(c)))
    if fresh:
        fresh.sort()
        items.extend((f"t{len(naming) + j}", c) for j, c in enumerate(fresh))
    items.sort()
    return tuple(items), e.const.key()


def _qcoord_ser(q, naming: dict = None):
    """(serialization, argument order) of a cube coordinate under a naming."""
    if isinstance(q, ConstCoord):
        return ("K", q.spec.spec_key(), q.point.key()), None
    sers = [_expr_ser(a, naming) for a in q.args]
    order = list(range(len(sers)))
    for cls in q.spec.sym_classes():
        if len(cls) > 1:
            for pos, i in zip(cls, sorted((i - 1 for i in cls), key=sers.__getitem__)):
                order[pos - 1] = i
    return ("F", q.spec.spec_key(), tuple(sers[i] for i in order)), order


def _render_expr(ser) -> str:
    items, const = ser
    return "+".join(f"{c}{n}" for n, c in items) + f"|{const}"


def _render_qcoord(ser) -> str:
    if ser[0] == "K":
        return f"K({ser[1]}@{ser[2]})"
    return f"F({ser[1]};{','.join(_render_expr(a) for a in ser[2])})"


def _rename(e: PointExpr, naming: dict) -> PointExpr:
    return PointExpr.make(e.curve, [(naming[n][0], naming[n][1] * c) for n, c in e.coeffs], e.const)


def _rebuild(cycle, ecoords, qcoords, qorder, naming) -> ParamCycle:
    qcoords2 = []
    for j in qorder:
        q = qcoords[j]
        if isinstance(q, FunCoord):
            order = _qcoord_ser(q, naming)[1]
            q = FunCoord(q.spec, tuple(_rename(q.args[i], naming) for i in order))
        qcoords2.append(q)
    names = tuple(f"t{i}" for i in range(len(naming)))
    ecoords2 = tuple(_rename(e, naming) for e in ecoords)
    canon = ParamCycle(cycle.curve, names, ecoords2, tuple(qcoords2))
    object.__setattr__(canon, "_canonical", True)  # its own canonical form, sign +1
    return canon


# ---------------------------------------------------------------------------
# cycle sums


class CycleSum(LinComb):
    """Exact linear combination of canonical cycles with a motive label.

    `of` canonicalizes on entry; the plain constructor takes canonical
    cycles as they are.
    """

    __slots__ = labels = ("motives",)  # ordered tensor factors (PureMotive), bookkeeping only
    sort_key = staticmethod(ParamCycle.key)

    @classmethod
    def of(cls, items, motives=()) -> "CycleSum":
        return cls(_canonical_items(items), tuple(motives))

    @classmethod
    def single(cls, cycle: ParamCycle, coeff=1, motives=()) -> "CycleSum":
        return cls.of([(cycle, coeff)], motives)

    def _check(self, other):
        # motive tags are bookkeeping: sums with other tags still add
        if type(other) is not CycleSum:
            raise TypeError(f"cannot add {type(other).__name__} to a CycleSum")

    def relabel(self, motives) -> "CycleSum":
        return self._like(self._coeffs, (tuple(motives),))


def _canonical_items(items):
    for cyc, coeff in items:
        if coeff:
            canon, sign = canonical_term(cyc)
            if canon is not None:
                yield canon, coeff * sign


# ---------------------------------------------------------------------------
# boundary


_face_cache: dict = {}


def _component_equation(q: FunCoord, component) -> PointExpr:
    kind = component[0]
    args = q.args
    if kind == "D":
        _, i, pt = component
        return args[i - 1].sub_point(pt)
    if kind == "Delta":
        _, i, j = component
        return args[i - 1] - args[j - 1]
    if kind == "Psi":
        _, i, j = component
        return args[i - 1] + args[j - 1]
    if kind == "Dsum":
        _, pt = component
        total = PointExpr.constant(pt)
        for a in args:
            total = total + a
        return total
    raise CycleError(f"unknown divisor component {component!r}")


def _solve_face(cycle: ParamCycle, slot: int, eq: PointExpr):
    """Impose eq = 0, eliminate one parameter, drop the cube slot.

    Returns the face cycle, or None when the equation has no solution on the
    family; raises DegeneracyError when it holds identically or cannot be
    solved with a unit pivot.
    """
    if eq.is_const():
        if eq.const.infinity:
            raise DegeneracyError(
                f"cube coordinate {slot} is identically degenerate on a face"
            )
        return None
    pivot = None
    for name in cycle.params:
        c = dict(eq.coeffs).get(name)
        if c in (1, -1):
            pivot = (name, c)
            break
    if pivot is None:
        raise DegeneracyError(f"face equation {eq!r} has no unit pivot")
    name, c = pivot
    rest = PointExpr(eq.curve, tuple((n, v) for n, v in eq.coeffs if n != name), eq.const)
    repl = rest.scale(-c)  # c = +-1
    ecoords = tuple(e.substitute(name, repl) for e in cycle.ecoords)
    qcoords = []
    for j, q in enumerate(cycle.qcoords, start=1):
        if j == slot:
            continue
        if isinstance(q, ConstCoord):
            qcoords.append(q)
        else:
            qcoords.append(
                _const_collapse(FunCoord(q.spec, tuple(a.substitute(name, repl) for a in q.args)))
            )
    params = tuple(p for p in cycle.params if p != name)
    face = ParamCycle(cycle.curve, params, ecoords, tuple(qcoords))
    _check_nondegenerate(face)
    return face


def _check_nondegenerate(cycle: ParamCycle):
    for j, q in enumerate(cycle.qcoords, start=1):
        if isinstance(q, ConstCoord):
            if q.spec.arity == 1 and q.point in q.spec.divisor:
                raise DegeneracyError(
                    f"cube coordinate {j} is the constant 0 or infinity"
                )
            continue
        for component, _ in q.spec.components():
            eq = _component_equation(q, component)
            if eq.is_const() and eq.const.infinity:
                raise DegeneracyError(
                    f"cube coordinate {j} became identically zero or infinite"
                )


def term_faces(cycle: ParamCycle):
    """All boundary faces of one cycle: list of (coefficient, face cycle)."""
    cached = _face_cache.get(cycle)
    if cached is not None:
        return cached
    out = []
    for slot, q in enumerate(cycle.qcoords, start=1):
        if isinstance(q, ConstCoord):
            continue
        slot_sign = -1 if (slot - 1) % 2 else 1
        for component, coeff in q.spec.components():
            if coeff.denominator != 1:
                raise CycleError("face multiplicities must be integers")
            eq = _component_equation(q, component)
            face = _solve_face(cycle, slot, eq)
            if face is None:
                continue
            # zeros (coeff > 0) enter with +, poles with -; multiplicity |coeff|
            out.append((slot_sign * coeff, face))
    _face_cache[cycle] = out
    return out


def boundary(s: CycleSum) -> CycleSum:
    faces = ((face, c * fc) for cyc, c in s.items() for fc, face in term_faces(cyc))
    return CycleSum.of(faces, s.motives)


# ---------------------------------------------------------------------------
# products and projector actions


_fresh_counter = itertools.count()


def _freshen(cycle: ParamCycle, taken: set) -> ParamCycle:
    mapping = {}
    for p in cycle.params:
        if p in taken:
            mapping[p] = f"w{next(_fresh_counter)}"
    return cycle.rename_params(mapping) if mapping else cycle


def external_product(s1: CycleSum, s2: CycleSum, target: PureMotive = None) -> CycleSum:
    """Concatenate E-factors and cube factors; bilinear.

    When a target motive is supplied, the decoration is projected onto it:
    the target must be a Clebsch-Gordan component of the factors' labels.
    """
    items = []
    for z1, c1 in s1.items():
        for z2, c2 in s2.items():
            z2f = _freshen(z2, set(z1.params))
            prod = ParamCycle(
                z1.curve,
                z1.params + z2f.params,
                z1.ecoords + z2f.ecoords,
                z1.qcoords + z2f.qcoords,
            )
            items.append((prod, c1 * c2))
    motives = tuple(s1.motives) + tuple(s2.motives)
    if target is not None:
        if not tensor_supports(motives, target):
            raise CycleError(
                f"{target!r} is not a component of the product decoration"
            )
        motives = (target,)
    return CycleSum.of(items, motives)


def tensor_supports(motives, target: PureMotive) -> bool:
    """Whether the target appears in the iterated Clebsch-Gordan expansion."""
    from .gl2 import clebsch_gordan

    if not motives:
        return target == PureMotive(0, 0)
    support = {motives[0]}
    for mot in motives[1:]:
        support = {W for V in support for W in clebsch_gordan(V, mot)}
    return target in support


def apply_projector_signed(s: CycleSum, element: GroupAlgebraElement) -> CycleSum:
    """Formal signed action on E-coordinates: sum of c_g * sign(g) * g(Z).

    Permuting E-coordinates costs the sign character, so g(Z) canonicalizes
    to sign(g) * Z and the action is multiplication by the coefficient sum
    sum c_g; no permuted cycle is built.  This realizes the right action
    Z . p = p^t(Z) of the untransposed projector.
    """
    if any(element.degree != cyc.b for cyc in s):
        raise CycleError("projector degree does not match the cycle")
    total = sum(element.values())
    return CycleSum.of(((cyc, coeff * total) for cyc, coeff in s.items()), s.motives)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    violations: tuple = ()


def check_admissible(gs, mode: str = "fbar", n: int = None, curve=None) -> AdmissibilityReport:
    """Divisor-level admissibility of a function tuple.

    Checks pairwise disjoint supports, supports avoiding the identity (and in
    Fn mode the nonzero 2-torsion), evenness, and the 2n-distinct-points
    count.
    """
    violations = []
    n = len(gs) if n is None else n
    supports = []
    for g in gs:
        if not is_principal(g.divisor):
            raise DivisorError(f"divisor of {g.name} is not principal")
        supports.append(set(g.divisor))
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            overlap = supports[i] & supports[j]
            if overlap:
                violations.append(
                    f"supports of {gs[i].name} and {gs[j].name} overlap at "
                    + ", ".join(sorted(p.key() for p in overlap))
                )
    special = set()
    if supports:
        zero = CurvePoint.at_infinity(gs[0].divisor.curve)
        special.add(zero)
        if mode == "fn":
            special.update(full_two_torsion(gs[0].divisor.curve))
    for g, supp in zip(gs, supports):
        hit = supp & special
        if hit:
            violations.append(
                f"support of {g.name} meets excluded points " + ", ".join(sorted(p.key() for p in hit))
            )
        if g.divisor.negate_points() == g.divisor:
            violations.append(f"{g.name} is even (divisor invariant under x -> -x)")
    distinct = set().union(*supports) if supports else set()
    if len(distinct) < 2 * n:
        violations.append(f"only {len(distinct)} distinct support points; need at least {2 * n}")
    return AdmissibilityReport(not violations, tuple(violations))


def _check_fixed_points(fixed, gs):
    seen = set()
    for a in fixed:
        if a.infinity:
            raise AdmissibilityError(
                AdmissibilityReport(False, ("fixed decoration points must be nonzero",))
            )
        if is_two_torsion(a) or ec_scalar_mul(3, a).infinity:
            raise AdmissibilityError(
                AdmissibilityReport(False, (f"fixed point {a.key()} is 2- or 3-torsion",))
            )
        if a in seen:
            raise AdmissibilityError(
                AdmissibilityReport(False, (f"fixed point {a.key()} repeated",))
            )
        seen.add(a)
        for g in gs:
            if a in g.divisor or ec_neg(a) in g.divisor:
                raise AdmissibilityError(
                    AdmissibilityReport(False, (f"fixed point {a.key()} meets the support of {g.name}",))
                )


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


def build_family(kind, curve, n, gs, fixed=(), mode="fbar", j=None, b1=None, b2=None):
    """Construct the X, Y, or Z family as a single ParamCycle.

    X(n, r): E-coordinates (x, -x - sum(y) - sum(a), y_1..y_n), cube
    coordinates (F_{n+1+r}(x, y, a), g_1(y_1), .., g_n(y_n)).
    Y(n, a):  ((-sum(y) - a), y_1..y_n; g_1(y_1)..g_n(y_n)).
    Z(n, j, b1, b2): x, (-x - sum_{i != j} y_i - b1 - b2), y's without y_j;
    the j-th cube coordinate is the constant g_j(b2).
    """
    report = check_admissible(gs, mode)
    if not report.passed:
        raise AdmissibilityError(report)

    if kind == "X":
        r = len(fixed)
        if n + r < 1:
            raise CycleError("X needs n + r >= 1")
        _check_fixed_points(fixed, gs)
        N = n + 1 + r
        params = ("x",) + tuple(f"y{i}" for i in range(1, n + 1))
        x = PointExpr.param(curve, "x")
        ys = [PointExpr.param(curve, f"y{i}") for i in range(1, n + 1)]
        asum = CurvePoint.at_infinity(curve)
        for a in fixed:
            asum = ec_add(asum, a)
        balance = PointExpr.make(
            curve,
            [("x", -1)] + [(f"y{i}", -1) for i in range(1, n + 1)],
            ec_neg(asum),
        )
        fargs = tuple([x] + ys + [PointExpr.constant(a) for a in fixed])
        qcoords = [FunCoord(_fspec(curve, N, mode), fargs)]
        qcoords += [FunCoord(g, (ys[i],)) for i, g in enumerate(gs)]
        return ParamCycle(curve, params, tuple([x, balance] + ys), tuple(qcoords))

    if kind == "Y":
        a = fixed[0] if fixed else CurvePoint.at_infinity(curve)
        if n == 0:
            return ParamCycle(curve, (), (PointExpr.constant(ec_neg(a)),), ())
        params = tuple(f"y{i}" for i in range(1, n + 1))
        ys = [PointExpr.param(curve, f"y{i}") for i in range(1, n + 1)]
        lead = PointExpr.make(curve, [(f"y{i}", -1) for i in range(1, n + 1)], ec_neg(a))
        qcoords = tuple(FunCoord(g, (ys[i],)) for i, g in enumerate(gs))
        return ParamCycle(curve, params, tuple([lead] + ys), qcoords)

    if kind == "Z":
        if j is None or b1 is None or b2 is None:
            raise CycleError("Z needs j, b1, b2")
        if not 1 <= j <= n:
            raise CycleError("Z index j out of range")
        if b2 in gs[j - 1].divisor:
            raise AdmissibilityError(
                AdmissibilityReport(False, (f"b2 = {b2.key()} lies in the divisor of {gs[j-1].name}",))
            )
        other = [i for i in range(1, n + 1) if i != j]
        params = ("x",) + tuple(f"y{i}" for i in other)
        x = PointExpr.param(curve, "x")
        ys = {i: PointExpr.param(curve, f"y{i}") for i in other}
        balance = PointExpr.make(
            curve,
            [("x", -1)] + [(f"y{i}", -1) for i in other],
            ec_neg(ec_add(b1, b2)),
        )
        qcoords = []
        for i in range(1, n + 1):
            if i == j:
                qcoords.append(ConstCoord(gs[j - 1], b2))
            else:
                qcoords.append(FunCoord(gs[i - 1], (ys[i],)))
        ecoords = tuple([x, balance] + [ys[i] for i in other])
        return ParamCycle(curve, params, ecoords, tuple(qcoords))

    raise CycleError(f"unknown family kind {kind!r}")


def decorate(kind, cycle_or_point, n=None) -> CycleSum:
    """Projector decoration and motive tag for the cycle families.

    eta: signed transposed-tabloid action of rho^t_{n,1} on X, tagged
    Sym^n h^1(E)(-1); mu: Y as is, tagged Sym^{n+1} h^1(E); nu: signed
    rho^t_{n-1,1} action on Z, tagged Sym^{n-1} h^1(E)(-1); eta_point: the
    divisor (p) - (-p) tagged h^1(E).
    """
    if kind == "eta_point":
        p = cycle_or_point
        if p.infinity:
            raise CycleError("eta_point needs a nonzero point")
        curve = p.curve
        plus = ParamCycle(curve, (), (PointExpr.constant(p),), ())
        minus = ParamCycle(curve, (), (PointExpr.constant(ec_neg(p)),), ())
        return CycleSum.of([(plus, 1), (minus, -1)], (PureMotive(1, 0),))

    cycle = cycle_or_point
    if kind == "eta":
        if cycle.b != n + 2:
            raise CycleError("eta expects an X-family cycle with b = n + 2")
        shape = YoungShape.standard((n + 1, 1), "tabloid")
        element = transpose_projector(shape)
        out = apply_projector_signed(CycleSum.single(cycle), element)
        return out.relabel((PureMotive(n, 1),))
    if kind == "mu":
        if cycle.b != n + 1:
            raise CycleError("mu expects a Y-family cycle with b = n + 1")
        return CycleSum.single(cycle, motives=(PureMotive(n + 1, 0),))
    if kind == "nu":
        if cycle.b != n + 1:
            raise CycleError("nu expects a Z-family cycle with b = n + 1")
        if n < 1:
            raise CycleError("nu needs n >= 1")
        shape = YoungShape.standard((n, 1), "tabloid") if n >= 1 else None
        element = transpose_projector(shape)
        out = apply_projector_signed(CycleSum.single(cycle), element)
        return out.relabel((PureMotive(n - 1, 1),))
    raise CycleError(f"unknown decoration kind {kind!r}")


# ---------------------------------------------------------------------------
# kill-cycle families (the two homotopy families of the triviality argument)


def build_mu_killer(curve, gs, i: int, shift: CurvePoint, extra_name="z"):
    """((-sum(y) - z - shift), y_1..y_n ; g_1(y_1)..g_n(y_n), g_i(z)).

    Its z-face sweeps sum_p m_p * mu^{p + shift}(gs): the boundary reproduces
    the mu contributions.
    """
    n = len(gs)
    params = tuple(f"y{k}" for k in range(1, n + 1)) + (extra_name,)
    ys = [PointExpr.param(curve, f"y{k}") for k in range(1, n + 1)]
    z = PointExpr.param(curve, extra_name)
    lead = PointExpr.make(
        curve,
        [(f"y{k}", -1) for k in range(1, n + 1)] + [(extra_name, -1)],
        ec_neg(shift),
    )
    qcoords = [FunCoord(g, (ys[k],)) for k, g in enumerate(gs)]
    qcoords.append(FunCoord(gs[i - 1], (z,)))
    return ParamCycle(curve, params, tuple([lead] + ys), tuple(qcoords))


def build_nu_killer(curve, gs, j: int, b1: CurvePoint, b2: CurvePoint):
    """(x, (-x - sum(y) - b1), y's without y_j ; g_1(y_1)..g_n(y_n), g_j(b2)).

    Its y_j-face sweeps the nu-family cycles: the boundary reproduces the nu
    contributions (the s = b2 term is the nu cycle itself).
    """
    n = len(gs)
    if b2 in gs[j - 1].divisor:
        raise AdmissibilityError(
            AdmissibilityReport(False, (f"b2 = {b2.key()} lies in the divisor of {gs[j-1].name}",))
        )
    params = ("x",) + tuple(f"y{k}" for k in range(1, n + 1))
    x = PointExpr.param(curve, "x")
    ys = {k: PointExpr.param(curve, f"y{k}") for k in range(1, n + 1)}
    balance = PointExpr.make(
        curve,
        [("x", -1)] + [(f"y{k}", -1) for k in range(1, n + 1)],
        ec_neg(b1),
    )
    ecoords = tuple([x, balance] + [ys[k] for k in range(1, n + 1) if k != j])
    qcoords = [FunCoord(g, (ys[k],)) for k, g in enumerate(gs, start=1)]
    qcoords.append(ConstCoord(gs[j - 1], b2))
    return ParamCycle(curve, params, ecoords, tuple(qcoords))
