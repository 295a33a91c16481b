"""Formal divisors on E, named divisor classes on E^n, point expressions.

Three layers:

* `FormalDivisor` — an exact-coefficient formal sum of points of E(k), with
  Abel's principality criterion (degree zero and group-law sum equal to the
  identity).  Divisor recipes for the functions h_n live here.

* `ProductDivisorClass` — a formal sum of *named* codimension-1 classes on
  E^n: coordinate fibers D_i(q) = p_i^*(q), diagonals Delta_{i,j}, the
  antidiagonal Psi_{i,j} = {x_i + x_j = 0}, and the class Dsum(q) cut out by
  p_{n+1} = -sum(p_i) taking the value q.  On E^2 the class Dsum(0) is the
  antidiagonal and is normalized to Psi_{1,2} on construction.  The recipes
  for F-bar_n and F_n live here, as does the (Z/2Z)^2 alternating
  projection used on E x E classes.

* `PointExpr` — the one affine E-valued expression type, sum(c_k * t_k) +
  const in named parameters, and `class_equation`, the one table of the
  affine equations that cut out the named classes.  The cubical faces of
  the cycle families impose these equations (`cycles.term_faces`), and
  `restrict_to_fiber` solves them for a fresh parameter at the fiber
  coordinate, so it returns divisors over point expressions, which evaluate
  exactly once an assignment is given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import CurvePoint, EllipticCurve, ec_add, ec_neg, ec_scalar_mul, is_two_torsion
from .lincomb import LinComb


class DivisorError(ValueError):
    """Domain errors: bad indices, non-integer coefficients, wrong torsion."""


class DegeneracyError(ValueError):
    """A restriction or face hit a special locus; carries the locus name."""


# ---------------------------------------------------------------------------
# formal divisors on E


class FormalDivisor(LinComb):
    """Exact formal sum of points on one curve."""

    __slots__ = labels = ("curve",)
    sort_key = staticmethod(CurvePoint.key)
    error = DivisorError

    @classmethod
    def of(cls, curve: EllipticCurve, items) -> "FormalDivisor":
        return cls(_on_curve(curve, items), curve)

    def support(self):
        """The points, in key order."""
        return [p for p, _ in self.terms]

    def degree(self):
        return sum(self.values())

    def negate_points(self) -> "FormalDivisor":
        """Pullback along x -> -x; detects even functions (self-invariance)."""
        return FormalDivisor.of(self.curve, [(ec_neg(p), c) for p, c in self.items()])

    def serialize(self):
        return [{"point": point_payload(p), "coeff": str(c)} for p, c in self.terms]

    def _term_repr(self, point, coeff) -> str:
        return f"{coeff}({point!r})"


def _on_curve(curve, items):
    for point, coeff in items:
        if point.curve != curve:
            raise DivisorError("divisor point on the wrong curve")
        yield point, coeff


def point_payload(p: CurvePoint):
    if p.infinity:
        return "inf"
    F = p.curve.field
    return [F.key(p.x), F.key(p.y)]


def is_principal(D: FormalDivisor) -> bool:
    """Abel's criterion on E: degree 0 and group-law sum equal to the identity."""
    sum_point = CurvePoint.at_infinity(D.curve)
    for p, c in D.items():
        if c.denominator != 1:
            raise DivisorError("principality requires integer coefficients")
        sum_point = ec_add(sum_point, ec_scalar_mul(int(c), p))
    return D.degree() == 0 and sum_point.infinity


def make_hn_divisor(n: int, u: CurvePoint, v: CurvePoint) -> FormalDivisor:
    """Divisor of h_n: n(u) - n(0) for even n, (n-2)(u)+(v)+(u+v)-n(0) for odd n."""
    if n < 2:
        raise DivisorError("h_n needs n >= 2")
    curve = u.curve
    for t in (u, v):
        if t.infinity or not is_two_torsion(t):
            raise DivisorError("u, v must be nonzero 2-torsion points")
    if u == v:
        raise DivisorError("u, v must be distinct")
    zero = CurvePoint.at_infinity(curve)
    if n % 2 == 0:
        return FormalDivisor.of(curve, [(u, n), (zero, -n)])
    return FormalDivisor.of(curve, [(u, n - 2), (v, 1), (ec_add(u, v), 1), (zero, -n)])


# ---------------------------------------------------------------------------
# named classes on E^n

# NamedClass keys:
#   ("D", i, point)   coordinate fiber p_i^*(point), 1 <= i <= n
#   ("Delta", i, j)   {x_i = x_j}, i < j
#   ("Psi", i, j)     {x_i + x_j = 0}, i < j
#   ("Dsum", point)   {-(x_1+...+x_n) = point}; the class D_{n+1}(point)


def _class_key(cls) -> str:
    kind = cls[0]
    if kind == "D":
        return f"D{cls[1]}({cls[2].key()})"
    if kind in ("Delta", "Psi"):
        return f"{kind}{cls[1]},{cls[2]}"
    if kind == "Dsum":
        return f"Dsum({cls[1].key()})"
    raise DivisorError(f"unknown class {cls!r}")


class ProductDivisorClass(LinComb):
    """Formal sum of named codimension-1 classes on E^n."""

    __slots__ = labels = ("curve", "n")
    sort_key = staticmethod(_class_key)
    error = DivisorError

    @classmethod
    def of(cls, curve: EllipticCurve, n: int, items) -> "ProductDivisorClass":
        return cls(((_normalize_class(k, n), c) for k, c in items), curve, n)

    def coeff(self, cls):
        return super().coeff(_normalize_class(cls, self.n))

    def diff(self, other: "ProductDivisorClass"):
        """Term-by-term difference report: list of (class key, self coeff,
        other coeff), in class-key order."""
        return [
            (_class_key(k), self.coeff(k), other.coeff(k)) for k, _ in (self - other).terms
        ]

    def _term_repr(self, cls, coeff) -> str:
        return f"{coeff}*{_class_key(cls)}"


def _normalize_class(cls, n: int):
    kind = cls[0]
    if kind == "D":
        _, i, q = cls
        if not 1 <= i <= n:
            raise DivisorError(f"fiber index {i} out of range for E^{n}")
        return ("D", i, q)
    if kind in ("Delta", "Psi"):
        _, i, j = cls
        if i > j:
            i, j = j, i
        if not (1 <= i < j <= n):
            raise DivisorError(f"{kind} indices ({i},{j}) out of range for E^{n}")
        return (kind, i, j)
    if kind == "Dsum":
        _, q = cls
        # On E^2, {x1 + x2 = -q}: for q = 0 this is exactly the antidiagonal.
        if n == 2 and q.infinity:
            return ("Psi", 1, 2)
        return ("Dsum", q)
    raise DivisorError(f"unknown class {cls!r}")


def make_fbar_divisor(curve: EllipticCurve, n: int) -> ProductDivisorClass:
    """(F-bar_n) = -n * sum_i D_i(0) + sum_{i<j} Delta_{i,j} + D_{n+1}(0) on E^n."""
    if n < 2:
        raise DivisorError("F-bar_n needs n >= 2")
    zero = CurvePoint.at_infinity(curve)
    items = [(("D", i, zero), -n) for i in range(1, n + 1)]
    items += [(("Delta", i, j), 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    items.append((("Dsum", zero), 1))
    return ProductDivisorClass.of(curve, n, items)


def pullback_to_factor(D: FormalDivisor, n: int, j: int) -> ProductDivisorClass:
    """p_j^*(D) on E^n: each point q of D contributes D_j(q)."""
    return ProductDivisorClass.of(D.curve, n, [(("D", j, p), c) for p, c in D.items()])


@dataclass(frozen=True)
class FnDivisorReport:
    """Both readings of (F_n) plus their term-by-term difference.

    `product` is the divisor of the defining product
    F-bar_n * h_n^{-1}(z_2) ... h_n^{-1}(z_n); `displayed` is the closed-form
    divisor with poles at u in every coordinate.  The two disagree (the
    product leaves coordinate 1 with poles at 0), so both are returned and
    the difference is flagged downstream.
    """

    product: ProductDivisorClass
    displayed: ProductDivisorClass
    difference: list


def make_fn_divisor(curve: EllipticCurve, n: int, u: CurvePoint, v: CurvePoint) -> FnDivisorReport:
    hn = make_hn_divisor(n, u, v)
    product = make_fbar_divisor(curve, n)
    for j in range(2, n + 1):
        product = product - pullback_to_factor(hn, n, j)

    zero = CurvePoint.at_infinity(curve)
    items = []
    if n % 2 == 0:
        items += [(("D", i, u), -n) for i in range(1, n + 1)]
    else:
        items += [(("D", i, u), -(n - 2)) for i in range(1, n + 1)]
        items += [(("D", i, v), -1) for i in range(1, n + 1)]
        uv = ec_add(u, v)
        items += [(("D", i, uv), -1) for i in range(1, n + 1)]
    items += [(("Delta", i, j), 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    items.append((("Dsum", zero), 1))
    displayed = ProductDivisorClass.of(curve, n, items)

    return FnDivisorReport(product, displayed, product.diff(displayed))


# ---------------------------------------------------------------------------
# affine E-valued expressions, the class equations, fiberwise restriction


@dataclass(frozen=True, slots=True)
class PointExpr:
    """sum(c_k * t_k) + const, with integer coefficients in named E-valued
    parameters and a point constant."""

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
        if k == -1:
            return -self
        return PointExpr(
            self.curve, tuple((n, k * c) for n, c in self.coeffs), ec_scalar_mul(k, self.const)
        )

    def solve(self, name: str) -> "PointExpr":
        """The value of the parameter on {self = 0}; its coefficient is +-1."""
        c = dict(self.coeffs)[name]
        rest = PointExpr(self.curve, tuple((n, v) for n, v in self.coeffs if n != name), self.const)
        return rest.scale(-c)

    def substitute(self, name: str, repl: "PointExpr") -> "PointExpr":
        for n, c in self.coeffs:
            if n == name:
                break
        else:
            return self
        scaled = repl if c == 1 else repl.scale(c)
        items = [(n, v) for n, v in self.coeffs if n != name] + list(scaled.coeffs)
        return PointExpr.make(self.curve, items, ec_add(self.const, scaled.const))

    def vanishes_with(self, name: str, repl: "PointExpr") -> bool:
        """Whether `substitute(name, repl)` is identically the identity.  The
        coefficients are compared first; the constant is summed only when
        they cancel."""
        for n, c in self.coeffs:
            if n == name:
                break
        else:
            return not self.coeffs and self.const.infinity
        rest = [(n, v) for n, v in self.coeffs if n != name]
        if rest != [(n, -c * v) for n, v in repl.coeffs]:
            return False
        return ec_add(self.const, ec_scalar_mul(c, repl.const)).infinity

    def rename(self, mapping: dict) -> "PointExpr":
        return PointExpr.make(
            self.curve, [(mapping.get(n, n), c) for n, c in self.coeffs], self.const
        )

    def evaluate(self, assignment) -> CurvePoint:
        """The point at an assignment {name: point} of the parameters."""
        acc = self.const
        for name, c in self.coeffs:
            acc = ec_add(acc, ec_scalar_mul(c, assignment[name]))
        return acc

    def key(self) -> tuple:
        """The serialization under the expression's own names."""
        return self.coeffs, self.const.key()

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    def __repr__(self) -> str:
        return render_expr(self.key())


def render_expr(ser) -> str:
    items, const = ser
    return "+".join(f"{c}{n}" for n, c in items) + f"|{const}"


def class_equation(named, args) -> PointExpr:
    """The expression that vanishes where the point (args[0], .., args[n-1])
    of E^n lies on the named class."""
    kind = named[0]
    if kind == "D":
        _, i, q = named
        return args[i - 1].sub_point(q)
    if kind == "Delta":
        _, i, j = named
        return args[i - 1] - args[j - 1]
    if kind == "Psi":
        _, i, j = named
        return args[i - 1] + args[j - 1]
    if kind == "Dsum":
        total = PointExpr.constant(named[1])
        for a in args:
            total = total + a
        return total
    raise DivisorError(f"unknown class {named!r}")


class SymbolicDivisor(LinComb):
    """Formal divisor whose points are affine expressions."""

    __slots__ = labels = ("curve",)
    sort_key = staticmethod(PointExpr.key)
    error = DivisorError

    @classmethod
    def of(cls, curve, items) -> "SymbolicDivisor":
        return cls(items, curve)

    def degree(self):
        return sum(self.values())

    def evaluate(self, assignment) -> FormalDivisor:
        return FormalDivisor.of(self.curve, [(p.evaluate(assignment), c) for p, c in self.items()])

    _term_repr = FormalDivisor._term_repr


def restrict_to_fiber(cls: ProductDivisorClass, i: int, fixed: dict) -> SymbolicDivisor:
    """Restrict a class on E^n to the fiber over coordinate i.

    `fixed` maps every coordinate j != i to a PointExpr (generic parameters
    or constants).  A fresh parameter stands at coordinate i, and each
    class's equation is solved for it: the fiber meets the class in that
    one point.  An equation without the parameter skips the class, unless
    it vanishes identically: then the fixed values lie on the class.
    """
    n = cls.n
    if not 1 <= i <= n:
        raise DivisorError(f"coordinate {i} out of range for E^{n}")
    missing = [j for j in range(1, n + 1) if j != i and j not in fixed]
    if missing:
        raise DivisorError(f"missing fixed values for coordinates {missing}")
    # longer than every name the fixed values use, so fresh
    t = "x" + max((p for e in fixed.values() for p in e.params()), key=len, default="")
    point = [PointExpr.param(cls.curve, t) if j == i else fixed[j] for j in range(1, n + 1)]
    out = []
    for named, c in cls.terms:
        eq = class_equation(named, point)
        if t in eq.params():
            out.append((eq.solve(t), c))
        elif eq.is_const() and eq.const.infinity:
            raise DegeneracyError(f"fixed values lie on {_class_key(named)}")
    return SymbolicDivisor.of(cls.curve, out)


# ---------------------------------------------------------------------------
# the (Z/2Z)^2 alternating projection on E^2 classes


def _negate_coordinate(named, k: int):
    kind = named[0]
    if kind == "D":
        _, i, q = named
        return ("D", i, ec_neg(q)) if i == k else named
    if kind == "Delta":
        _, i, j = named
        return ("Psi", i, j) if k in (i, j) else named
    if kind == "Psi":
        _, i, j = named
        return ("Delta", i, j) if k in (i, j) else named
    raise DivisorError(f"cannot negate a coordinate of {_class_key(named)}")


def alt_project_square(cls: ProductDivisorClass) -> ProductDivisorClass:
    """Sum over (Z/2Z)^2 of sign(g) * g acting on an E^2 class by negations."""
    if cls.n != 2:
        raise DivisorError("alternating projection is defined on E^2 classes")
    items = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            sign = (-1) ** (e1 + e2)
            for named, c in cls.items():
                img = named
                if e1:
                    img = _negate_coordinate(img, 1)
                if e2:
                    img = _negate_coordinate(img, 2)
                items.append((img, c * sign))
    return ProductDivisorClass.of(cls.curve, 2, items)


def swap_factors_square(cls: ProductDivisorClass) -> ProductDivisorClass:
    """Pushforward along the swap (x, y) -> (y, x) of E^2."""
    if cls.n != 2:
        raise DivisorError("factor swap is defined on E^2 classes")
    items = []
    for named, c in cls.items():
        if named[0] == "D":
            _, i, q = named
            items.append((("D", 3 - i, q), c))
        else:
            items.append((named, c))
    return ProductDivisorClass.of(cls.curve, 2, items)
