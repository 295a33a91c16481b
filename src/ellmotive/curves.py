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

Coordinates are plain numbers (Fractions over Q, ints in [0, p) over F_p);
the curve's field reduces each result once, divides and keys.  The curve
formulas use Python's operators, with int literals on the right of a product
(`x * x * 3`), so a Fraction product takes Fraction's forward operator.  The
chord-tangent step is one formula for both fields on the integer numerators
and denominators of the coordinates and coefficients (an int is its own
numerator, over 1): the slope stays a reduced integer pair, and the field
divides once per result coordinate, which over Q is one `Fraction(n, d)`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .fields import FieldError, PrimeField, RationalField
from .frozen import Frozen, _set


class CurveError(ValueError):
    """Structural errors: singular curve, off-curve point, mismatched curves."""


class EllipticCurve(Frozen):
    __slots__ = (
        "field",
        "a1",
        "a2",
        "a3",
        "a4",
        "a6",
        "_key",
        "_hash",
        # the group-law memo: (P, Q) -> P + Q and P -> -P
        "_sums",
        "_negs",
        "_points",  # value -> the one object
        "_zero",  # the identity point
        "_two_torsion",  # filled on first use
    )

    def __init__(self, field, a1, a2, a3, a4, a6):
        _set(self, "field", field)
        _set(self, "a1", a1)
        _set(self, "a2", a2)
        _set(self, "a3", a3)
        _set(self, "a4", a4)
        _set(self, "a6", a6)
        coeffs = ",".join(field.key(c) for c in (a1, a2, a3, a4, a6))
        key = f"E[{coeffs}]/{field}"
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))
        _set(self, "_sums", {})
        _set(self, "_negs", {})
        _set(self, "_points", {})
        _set(self, "_zero", CurvePoint(self, infinity=True))

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

    def _args(self) -> tuple:
        # copies and pickles start with an empty group-law memo
        return self.field, self.a1, self.a2, self.a3, self.a4, self.a6

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self._key


class CurvePoint(Frozen):
    """A point of E(k): Infinity (the group identity 0) or an affine (x, y)."""

    # _key and _hash are filled on first use by key() and __hash__
    __slots__ = ("curve", "x", "y", "infinity", "_key", "_hash")

    def __init__(self, curve: EllipticCurve, x=None, y=None, infinity=False):
        _set(self, "curve", curve)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "infinity", infinity)

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
            _set(self, "_key", key)
            return key

    def __repr__(self) -> str:
        return self.key()

    def _args(self) -> tuple:
        return self.curve, self.x, self.y, self.infinity

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = self.curve, self.x, self.y, self.infinity
        return mine == (other.curve, other.x, other.y, other.infinity)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.curve._hash, self.key()))
            _set(self, "_hash", h)
            return h


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
    """P + Q for affine points on one curve.

    One formula for both fields, on the integer numerators and denominators
    of the coordinates and of a1..a4 (an int is its own numerator, over 1):
    x_i = X_i/U_i, y_i = Y_i/V_i and a_i = n_i/d_i.  The slope lambda = l/m
    stays a reduced integer pair, and the field divides once per result
    coordinate."""
    E = P.curve
    x1, y1, x2 = P.x, P.y, Q.x
    X1, U1, Y1, V1 = x1.numerator, x1.denominator, y1.numerator, y1.denominator
    X2, U2 = x2.numerator, x2.denominator
    n1, d1 = E.a1.numerator, E.a1.denominator
    n2, d2 = E.a2.numerator, E.a2.denominator
    n3, d3 = E.a3.numerator, E.a3.denominator
    if x1 == x2:
        if Q == ec_neg(P):
            return CurvePoint.at_infinity(E)
        # doubling: lambda = (3x^2 + 2*a2*x + a4 - a1*y) / (2y + a1*x + a3),
        # a quotient of num / (U^2 V d1 d2 d4) by den / (U V d1 d3)
        n4, d4 = E.a4.numerator, E.a4.denominator
        num = ((X1 * d2 * 3 + n2 * U1 * 2) * X1 * d4 + n4 * U1 * U1 * d2) * d1 * V1
        num -= n1 * Y1 * U1 * U1 * d2 * d4
        den = (Y1 * d1 * U1 * 2 + n1 * X1 * V1) * d3 + n3 * d1 * U1 * V1
        l, m = num * d3, den * U1 * d2 * d4
    else:
        y2 = Q.y
        Y2, V2 = y2.numerator, y2.denominator
        l = (Y2 * V1 - Y1 * V2) * U1 * U2
        m = (X2 * U1 - X1 * U2) * V1 * V2
    g = gcd(l, m)
    l, m = l // g, m // g
    # x3 = lambda (lambda + a1) - a2 - x1 - x2
    M = m * m * d1 * d2
    S = l * (l * d1 + n1 * m) * d2 - n2 * m * m * d1
    x3 = E.field.div(S * U1 * U2 - (X1 * U2 + X2 * U1) * M, M * U1 * U2)
    # y3 = lambda (x1 - x3) - a1 x3 - y1 - a3, the first two terms over W
    X3, U3 = x3.numerator, x3.denominator
    W = m * U1 * U3 * d1
    R = l * (X1 * U3 - X3 * U1) * d1 - n1 * X3 * m * U1
    y3 = E.field.div(R * V1 * d3 - (Y1 * d3 + n3 * V1) * W, W * V1 * d3)
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
    cubic = _two_torsion_cubic(curve)
    if isinstance(F, PrimeField):
        roots = _prime_cubic_roots(cubic, F.p)
    elif isinstance(F, RationalField):
        roots = _rational_cubic_roots(*cubic)
    else:
        raise FieldError("unsupported field for two-torsion search")
    out = []
    for x in roots:
        y = F.div(-curve.a1 * x - curve.a3, 2)
        out.append(CurvePoint.affine(curve, x, y))
    out.sort(key=lambda P: P.key())
    _set(curve, "_two_torsion", tuple(out))
    return out


def _rational_cubic_roots(c3: Fraction, c2: Fraction, c1: Fraction, c0: Fraction):
    """Rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0), in order.

    Scaled to integer coefficients a3, .., a0, a rational root x makes
    y = a3 x an integer root of g(y) = y^3 + a2 y^2 + a1 a3 y + a0 a3^2.
    The critical points of g cut the integers into at most three runs on
    which g is monotone, and bisection finds the one root a run can hold."""
    denom = lcm(c3.denominator, c2.denominator, c1.denominator, c0.denominator)
    a3, a2, a1, a0 = (int(c * denom) for c in (c3, c2, c1, c0))
    b, c, d = a2, a1 * a3, a0 * a3 * a3

    def g(y):
        return ((y + b) * y + c) * y + d

    bound = 1 + max(abs(b), abs(c), abs(d))  # every real root lies strictly within
    disc = b * b - 3 * c  # g' = 3y^2 + 2by + c vanishes at (-b -+ sqrt(disc)) / 3
    runs = [(-bound, bound)]
    if disc > 0:
        s = isqrt(disc)
        up = s + (s * s != disc)  # the ceiling of sqrt(disc)
        runs = [
            (-bound, (-b - up) // 3),
            (-((b + s) // 3), (s - b) // 3),
            (-((b - up) // 3), bound),
        ]
    roots = set()
    for lo, hi in runs:
        if lo > hi:
            continue
        sign = 1 if g(hi) >= g(lo) else -1
        while lo < hi:  # the least y of the run with sign * g(y) >= 0
            mid = (lo + hi) // 2
            if sign * g(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if g(lo) == 0:
            roots.add(lo)
    return sorted(Fraction(y, a3) for y in roots)


# polynomials over F_p: coefficient lists, lowest degree first, no trailing zeros


def _poly_divmod(a, m, p: int):
    """Quotient and remainder of a by the monic m."""
    rem = [c % p for c in a]
    d = len(m) - 1
    quo = [0] * max(len(rem) - d, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + d]
        if c:
            for j, mj in enumerate(m):
                rem[i + j] = (rem[i + j] - c * mj) % p
    del rem[d:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _poly_mulmod(a, b, m, p: int):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_divmod(out, m, p)[1]


def _poly_powmod(base, e: int, m, p: int):
    """base^e modulo the monic m, by square-and-multiply."""
    out, base = [1], _poly_divmod(base, m, p)[1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, m, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, m, p)
    return out


def _poly_gcd(a, b, p: int):
    """The monic gcd of the monic a and b."""
    b = _poly_divmod(b, a, p)[1]
    while b:
        inv = pow(b[-1], -1, p)
        a, b = [c * inv % p for c in b], a
        b = _poly_divmod(b, a, p)[1]
    return a


def _prime_cubic_roots(cubic, p: int) -> list:
    """The roots in F_p of a cubic given leading coefficient first: its gcd
    with x^p - x is the product of its distinct linear factors."""
    inv = pow(cubic[0], -1, p)
    f = [c * inv % p for c in reversed(cubic)]
    h = _poly_powmod([0, 1], p, f, p) + [0, 0]
    h[1] -= 1
    return sorted(_split_linear(_poly_gcd(f, h, p), p))


def _split_linear(g, p: int) -> list:
    """The roots of g, a monic product of distinct linear factors over F_p.
    The roots r with r + a a nonzero square are those of
    gcd(g, (x + a)^((p-1)/2) - 1).  Two distinct roots fall on different
    sides for (p-1)/2 of the p shifts a, so the first shift that splits g
    comes within a few steps, and each factor splits in turn."""
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    a = 0
    while True:
        h = _poly_powmod([a, 1], (p - 1) // 2, g, p)
        h[0] -= 1
        k = _poly_gcd(g, h, p)
        if 1 < len(k) < len(g):
            return _split_linear(k, p) + _split_linear(_poly_divmod(g, k, p)[0], p)
        a += 1


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
