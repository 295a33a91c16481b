"""Elliptic curves in long Weierstrass form and the chord-tangent group law.

Curves are y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over an exact field
(Q or F_p).  Points are either the identity (the point at infinity, written 0
in divisor recipes) or affine pairs satisfying the equation exactly.  All
operations are pure; points are immutable and compared structurally.

Keys and hashes are computed once per object: a curve builds its key string
and hash on construction, a point its key and hash on first use.

Each curve memoizes its group law: `ec_add` and `ec_neg` look their
arguments up in the curve's `_sums` and `_negs` dicts and run the formulas
only on a miss, so a repeated sum returns the identical point (whose key and
hash are then already cached).  The memo lives exactly as long as its curve;
equal curves do not share one, and copies and pickles start empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from fractions import Fraction

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

    def __post_init__(self):
        F = self.field
        coeffs = ",".join(F.key(c) for c in (self.a1, self.a2, self.a3, self.a4, self.a6))
        key = f"E[{coeffs}]/{F}"
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_negs", {})

    @staticmethod
    def from_coeffs(field, a1, a2, a3, a4, a6) -> "EllipticCurve":
        cf = field.coerce
        curve = EllipticCurve(field, cf(a1), cf(a2), cf(a3), cf(a4), cf(a6))
        if field.is_zero(curve.discriminant()):
            raise CurveError("curve is singular (zero discriminant)")
        return curve

    def b_invariants(self):
        F, a1, a2, a3, a4, a6 = self.field, self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = F.add(F.mul(a1, a1), F.mul(F.coerce(4), a2))
        b4 = F.add(F.mul(F.coerce(2), a4), F.mul(a1, a3))
        b6 = F.add(F.mul(a3, a3), F.mul(F.coerce(4), a6))
        b8 = F.sub(
            F.add(
                F.add(F.mul(F.mul(a1, a1), a6), F.mul(F.coerce(4), F.mul(a2, a6))),
                F.add(F.mul(a2, F.mul(a3, a3)), F.neg(F.mul(a1, F.mul(a3, a4)))),
            ),
            F.mul(a4, a4),
        )
        return b2, b4, b6, b8

    def discriminant(self):
        F = self.field
        b2, b4, b6, b8 = self.b_invariants()
        t1 = F.neg(F.mul(F.mul(b2, b2), b8))
        t2 = F.neg(F.mul(F.coerce(8), F.mul(F.mul(b4, b4), b4)))
        t3 = F.neg(F.mul(F.coerce(27), F.mul(b6, b6)))
        t4 = F.mul(F.coerce(9), F.mul(b2, F.mul(b4, b6)))
        return F.add(F.add(t1, t2), F.add(t3, t4))

    def contains(self, x, y) -> bool:
        F = self.field
        lhs = F.add(F.mul(y, y), F.add(F.mul(self.a1, F.mul(x, y)), F.mul(self.a3, y)))
        rhs = F.add(
            F.mul(x, F.mul(x, x)),
            F.add(F.mul(self.a2, F.mul(x, x)), F.add(F.mul(self.a4, x), self.a6)),
        )
        return F.is_zero(F.sub(lhs, rhs))

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
        return CurvePoint(curve, infinity=True)

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
    if P.curve != Q.curve:
        raise CurveError("points on different curves")


def ec_neg(P: CurvePoint) -> CurvePoint:
    """-(x, y) = (x, -y - a1*x - a3); the identity is its own inverse."""
    if P.infinity:
        return P
    E = P.curve
    neg = E._negs.get(P)
    if neg is None:
        F = E.field
        neg = E._negs[P] = CurvePoint(E, P.x, F.sub(F.neg(P.y), F.add(F.mul(E.a1, P.x), E.a3)))
    return neg


def ec_add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition in long Weierstrass form, memoized per curve."""
    _require_same_curve(P, Q)
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    sums = P.curve._sums
    key = P, Q
    total = sums.get(key)
    if total is None:
        total = sums[key] = _chord_tangent(P, Q)
    return total


def _chord_tangent(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q for affine points on one curve."""
    F, E = P.curve.field, P.curve
    if P.x == Q.x:
        if Q == ec_neg(P):
            return CurvePoint.at_infinity(E)
        # doubling: lambda = (3x^2 + 2*a2*x + a4 - a1*y) / (2y + a1*x + a3)
        num = F.add(
            F.mul(F.coerce(3), F.mul(P.x, P.x)),
            F.add(F.mul(F.coerce(2), F.mul(E.a2, P.x)), F.sub(E.a4, F.mul(E.a1, P.y))),
        )
        den = F.add(F.mul(F.coerce(2), P.y), F.add(F.mul(E.a1, P.x), E.a3))
    else:
        num = F.sub(Q.y, P.y)
        den = F.sub(Q.x, P.x)
    lam = F.div(num, den)
    x3 = F.sub(F.add(F.mul(lam, lam), F.mul(E.a1, lam)), F.add(E.a2, F.add(P.x, Q.x)))
    y3 = F.sub(F.mul(lam, F.sub(P.x, x3)), F.add(P.y, F.add(F.mul(E.a1, x3), E.a3)))
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
    return [F.coerce(4), b2, F.mul(F.coerce(2), b4), b6]


def full_two_torsion(curve: EllipticCurve) -> list:
    """All rational points T != 0 with 2T = 0 (0, 1, or 3 of them)."""
    F = curve.field
    c3, c2, c1, c0 = _two_torsion_cubic(curve)
    roots = []
    if isinstance(F, PrimeField):
        for x in F.elements():
            val = F.add(F.mul(F.add(F.mul(F.add(F.mul(c3, x), c2), x), c1), x), c0)
            if F.is_zero(val):
                roots.append(x)
    elif isinstance(F, RationalField):
        roots = _rational_cubic_roots(c3, c2, c1, c0)
    else:
        raise FieldError("unsupported field for two-torsion search")
    out = []
    for x in roots:
        y = F.div(F.neg(F.add(F.mul(curve.a1, x), curve.a3)), F.coerce(2))
        out.append(CurvePoint.affine(curve, x, y))
    out.sort(key=lambda P: P.key())
    return out


def _rational_cubic_roots(c3: Fraction, c2: Fraction, c1: Fraction, c0: Fraction):
    """Rational roots of c3 x^3 + c2 x^2 + c1 x + c0 by the rational root test."""
    from math import gcd

    denom = 1
    for c in (c3, c2, c1, c0):
        denom = denom * c.denominator // gcd(denom, c.denominator)
    a3, a2, a1, a0 = (int(c * denom) for c in (c3, c2, c1, c0))
    if a0 == 0:
        rest = _rational_quadratic_roots(a3, a2, a1)
        return sorted(set([Fraction(0)] + rest))

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

    roots = set()
    for p in divisors(a0):
        for q in divisors(a3):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if a3 * cand**3 + a2 * cand**2 + a1 * cand + a0 == 0:
                    roots.add(cand)
    return sorted(roots)


def _rational_quadratic_roots(a2: int, a1: int, a0: int):
    from math import isqrt

    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    return sorted({Fraction(-a1 + r, 2 * a2), Fraction(-a1 - r, 2 * a2)})


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
