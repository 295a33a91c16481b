"""Elliptic curves in long Weierstrass form and the chord-tangent group law.

Curves are y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over an exact field
(Q or F_p).  Points are either the identity (the point at infinity, written 0
in divisor recipes) or affine pairs satisfying the equation exactly.  All
operations are pure; points are immutable and compared structurally.

Keys and hashes are computed once per object: a curve builds its key string
and hash on construction, a point its key and hash on first use.

Each curve memoizes its group law: `ec_add` and `ec_neg` look their
arguments up in the curve's `_sums` and `_negs` dicts and run the formulas
only on a miss.  A new result is interned in the curve's `_points` and
stored under both orders (a negation both ways), so the group law hands out
one object per value: memo lookups then match by identity, and keys and
hashes are computed once per value.  A curve also holds its one identity
point, which `CurvePoint.at_infinity` returns, and its rational 2-torsion
once `full_two_torsion` has found it.  These memos live exactly as long as
their curve; equal curves do not share them, and copies and pickles start
empty.

Coordinates are plain numbers (Fractions over Q, ints in [0, p) over F_p)
and the formulas use Python's operators; the curve's field reduces each
result once, divides and keys.  Int literals stand on the right of a product
(`x * x * 3`), so a Fraction product takes Fraction's forward operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from fractions import Fraction
from math import lcm

from .fields import FieldError, PrimeField, RationalField


class CurveError(ValueError):
    """Structural errors: singular curve, off-curve point, mismatched curves."""


@dataclass(frozen=True, slots=True)
class EllipticCurve:
    field: object
    a1: object
    a2: object
    a3: object
    a4: object
    a6: object
    _key: str = _field(init=False, repr=False, compare=False)
    _hash: int = _field(init=False, repr=False, compare=False)
    # the group-law memo: (P, Q) -> P + Q and P -> -P
    _sums: dict = _field(init=False, repr=False, compare=False)
    _negs: dict = _field(init=False, repr=False, compare=False)
    _points: dict = _field(init=False, repr=False, compare=False)  # value -> the one object
    _zero: object = _field(init=False, repr=False, compare=False)  # the identity point
    _two_torsion: tuple = _field(init=False, repr=False, compare=False)  # filled on first use

    def __post_init__(self):
        F = self.field
        coeffs = ",".join(F.key(c) for c in (self.a1, self.a2, self.a3, self.a4, self.a6))
        key = f"E[{coeffs}]/{F}"
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_negs", {})
        object.__setattr__(self, "_points", {})
        object.__setattr__(self, "_zero", CurvePoint(self, infinity=True))

    @staticmethod
    def from_coeffs(field, a1, a2, a3, a4, a6) -> "EllipticCurve":
        cf = field.coerce
        curve = EllipticCurve(field, cf(a1), cf(a2), cf(a3), cf(a4), cf(a6))
        if curve.discriminant() == 0:
            raise CurveError("curve is singular (zero discriminant)")
        return curve

    def b_invariants(self):
        F, a1, a2, a3, a4, a6 = self.field, self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = F.reduce(a1 * a1 + a2 * 4)
        b4 = F.reduce(a4 * 2 + a1 * a3)
        b6 = F.reduce(a3 * a3 + a6 * 4)
        b8 = F.reduce(a1 * a1 * a6 + a2 * a6 * 4 + a2 * a3 * a3 - a1 * a3 * a4 - a4 * a4)
        return b2, b4, b6, b8

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        disc = -b2 * b2 * b8 - b4 * b4 * b4 * 8 - b6 * b6 * 27 + b2 * b4 * b6 * 9
        return self.field.reduce(disc)

    def contains(self, x, y) -> bool:
        # y^2 + a1 x y + a3 y - (x^3 + a2 x^2 + a4 x + a6), in Horner form
        lhs = (y + self.a1 * x + self.a3) * y
        rhs = ((x + self.a2) * x + self.a4) * x + self.a6
        return self.field.reduce(lhs - rhs) == 0

    def key(self) -> str:
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and pickles recompute the caches (str hashes are per process)
        # and start with an empty group-law memo
        return EllipticCurve, (self.field, self.a1, self.a2, self.a3, self.a4, self.a6)

    def __repr__(self) -> str:
        return self._key


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """A point of E(k): Infinity (the group identity 0) or an affine (x, y)."""

    curve: EllipticCurve
    x: object = None
    y: object = None
    infinity: bool = False
    # filled on first use by key() and __hash__
    _key: str = _field(init=False, repr=False, compare=False)
    _hash: int = _field(init=False, repr=False, compare=False)

    @staticmethod
    def at_infinity(curve: EllipticCurve) -> "CurvePoint":
        return curve._zero

    @staticmethod
    def affine(curve: EllipticCurve, x, y) -> "CurvePoint":
        x, y = curve.field.coerce(x), curve.field.coerce(y)
        if not curve.contains(x, y):
            raise CurveError(f"point ({x}, {y}) is not on {curve!r}")
        return CurvePoint(curve, x, y)

    def key(self) -> str:
        try:
            return self._key
        except AttributeError:
            if self.infinity:
                key = "inf"
            else:
                F = self.curve.field
                key = f"({F.key(self.x)},{F.key(self.y)})"
            object.__setattr__(self, "_key", key)
            return key

    def __repr__(self) -> str:
        return self.key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.curve._hash, self.key()))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # copies and pickles recompute the caches (str hashes are per process)
        return CurvePoint, (self.curve, self.x, self.y, self.infinity)


def _require_same_curve(P: CurvePoint, Q: CurvePoint):
    if P.curve is not Q.curve and P.curve != Q.curve:
        raise CurveError("points on different curves")


def ec_neg(P: CurvePoint) -> CurvePoint:
    """-(x, y) = (x, -y - a1*x - a3); the identity is its own inverse."""
    if P.infinity:
        return P
    E = P.curve
    negs = E._negs
    neg = negs.get(P)
    if neg is None:
        neg = negs[P] = _intern(CurvePoint(E, P.x, E.field.reduce(-P.y - E.a1 * P.x - E.a3)))
        negs.setdefault(neg, P)
    return neg


def ec_add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition in long Weierstrass form, memoized per curve."""
    _require_same_curve(P, Q)
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    sums = P.curve._sums
    total = sums.get((P, Q))
    if total is None:
        total = sums[P, Q] = sums[Q, P] = _intern(_chord_tangent(P, Q))
    return total


def _intern(P: CurvePoint) -> CurvePoint:
    """The curve's one object for P's value."""
    return P.curve._points.setdefault(P, P)


def _chord_tangent(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q for affine points on one curve."""
    F, E = P.curve.field, P.curve
    if P.x == Q.x:
        if Q == ec_neg(P):
            return CurvePoint.at_infinity(E)
        # doubling: lambda = (3x^2 + 2*a2*x + a4 - a1*y) / (2y + a1*x + a3)
        num = P.x * P.x * 3 + E.a2 * P.x * 2 + E.a4 - E.a1 * P.y
        den = P.y * 2 + E.a1 * P.x + E.a3
    else:
        num = Q.y - P.y
        den = Q.x - P.x
    lam = F.div(num, den)
    x3 = F.reduce(lam * lam + E.a1 * lam - E.a2 - P.x - Q.x)
    y3 = F.reduce(lam * (P.x - x3) - P.y - E.a1 * x3 - E.a3)
    return CurvePoint(E, x3, y3)


def ec_scalar_mul(n: int, P: CurvePoint) -> CurvePoint:
    """n-fold sum by double-and-add; 0*P is the identity."""
    if n < 0:
        return ec_scalar_mul(-n, ec_neg(P))
    acc = CurvePoint.at_infinity(P.curve)
    addend = P
    while n:
        if n & 1:
            acc = ec_add(acc, addend)
        n >>= 1
        if n:  # double only while bits remain
            addend = ec_add(addend, addend)
    return acc


def is_two_torsion(P: CurvePoint) -> bool:
    """True iff 2P = 0, including P = 0 itself."""
    return ec_add(P, P).infinity


def _two_torsion_cubic(curve: EllipticCurve):
    # 2T = 0 for affine T iff 4x^3 + b2 x^2 + 2 b4 x + b6 = 0 and y = -(a1 x + a3)/2.
    b2, b4, b6, _ = curve.b_invariants()
    F = curve.field
    return [F.coerce(4), b2, F.reduce(b4 * 2), b6]


def full_two_torsion(curve: EllipticCurve) -> list:
    """All rational points T != 0 with 2T = 0 (0, 1, or 3 of them), in key
    order; the roots are found once per curve."""
    try:
        return list(curve._two_torsion)
    except AttributeError:
        pass
    F = curve.field
    c3, c2, c1, c0 = _two_torsion_cubic(curve)
    if isinstance(F, PrimeField):
        roots = [x for x in F.elements() if F.reduce(((c3 * x + c2) * x + c1) * x + c0) == 0]
    elif isinstance(F, RationalField):
        roots = _rational_cubic_roots(c3, c2, c1, c0)
    else:
        raise FieldError("unsupported field for two-torsion search")
    out = []
    for x in roots:
        y = F.div(-curve.a1 * x - curve.a3, 2)
        out.append(CurvePoint.affine(curve, x, y))
    out.sort(key=lambda P: P.key())
    object.__setattr__(curve, "_two_torsion", tuple(out))
    return out


def _rational_cubic_roots(c3: Fraction, c2: Fraction, c1: Fraction, c0: Fraction):
    """Rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0): x = 0 while
    the constant term is 0, then the rational root test on what is left."""
    denom = lcm(c3.denominator, c2.denominator, c1.denominator, c0.denominator)
    coeffs = [int(c * denom) for c in (c3, c2, c1, c0)]
    roots = set()
    while coeffs[-1] == 0:
        roots.add(Fraction(0))
        coeffs.pop()

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    for p in divisors(coeffs[-1]):
        for q in divisors(coeffs[0]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = 0
                for a in coeffs:
                    val = val * cand + a
                if val == 0:
                    roots.add(cand)
    return sorted(roots)


def enumerate_points(curve: EllipticCurve) -> list:
    """All points of E(F_p) by exhaustive search (prime fields only)."""
    F = curve.field
    if not isinstance(F, PrimeField):
        raise CurveError("point enumeration is only available over prime fields")
    pts = [CurvePoint.at_infinity(curve)]
    for x in F.elements():
        for y in F.elements():
            if curve.contains(x, y):
                pts.append(CurvePoint(curve, x, y))
    return pts
