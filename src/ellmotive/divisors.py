"""Formal divisors on E, named divisor classes on E^n, point expressions.

Three layers:

* `FormalDivisor` — an exact-coefficient formal sum of points of E(k), with
  Abel's principality criterion (degree zero and group-law sum equal to the
  identity).  Divisor recipes for the functions h_n live here.

* `ProductDivisorClass` — a formal sum of *named* codimension-1 classes on
  E^n: coordinate fibers D_i(q) = p_i^*(q), diagonals Delta_{i,j}, the
  antidiagonal Psi_{i,j} = {x_i + x_j = 0}, and the class Dsum(q) cut out by
  p_{n+1} = -sum(p_i) taking the value q.  Each class is stored as its
  affine equation sum(c_i * x_i) + q = 0, normalized; names are read where
  a class is made and written where it is sorted or shown, so equal classes
  (Dsum(0) and Psi_{1,2} on E^2) are one basis element.  The recipes for
  F-bar_n and F_n live here, as do the factor swap and the (Z/2Z)^2
  alternating projection on E x E classes, both arithmetic on the equations.

* `PointExpr` — the one affine E-valued expression type, sum(c_k * t_k) +
  const in named parameters, and `class_equation`, a class's equation at
  point expressions.  The cubical faces of the cycle families impose these
  equations (`cycles.term_faces`), and `restrict_to_fiber` solves them for
  a fresh parameter at the fiber coordinate, so it returns divisors over
  point expressions, which evaluate exactly once an assignment is given.
"""

from __future__ import annotations

from .curves import CurvePoint, EllipticCurve, ec_add, ec_neg, ec_scalar_mul, is_two_torsion
from .frozen import Frozen, _set
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

# A class on E^n is stored as its affine form (c, q), the locus
# sum(c_i * x_i) + q = 0 with every c_i in {-1, 0, 1}, the first nonzero 1.
# Its name is read only by `_parse_class` and written only by `_class_key`:
#   ("D", i, p)       D_i(p) = {x_i = p}                  x_i - p
#   ("Delta", i, j)   {x_i = x_j}                         x_i - x_j
#   ("Psi", i, j)     {x_i + x_j = 0}                     x_i + x_j
#   ("Dsum", p)       D_{n+1}(p) = {-(x_1+...+x_n) = p}   x_1 + ... + x_n + p
# Equal classes have equal forms: on E^2, Dsum(0) is Psi_{1,2}.


def _parse_class(curve: EllipticCurve, n: int, named) -> tuple:
    """The form of a class on E^n given by its name."""
    kind, *args = named
    c = [0] * n
    if kind == "D":
        i, p = args
        if not 1 <= i <= n:
            raise DivisorError(f"fiber index {i} out of range for E^{n}")
        c[i - 1], q = 1, ec_neg(p)
    elif kind in ("Delta", "Psi"):
        i, j = sorted(args)
        if not 1 <= i < j <= n:
            raise DivisorError(f"{kind} indices ({i},{j}) out of range for E^{n}")
        c[i - 1], c[j - 1], q = 1, (-1 if kind == "Delta" else 1), CurvePoint.at_infinity(curve)
    elif kind == "Dsum":
        c, (q,) = [1] * n, args
    else:
        raise DivisorError(f"unknown class {named!r}")
    return tuple(c), q


def _class_key(form) -> str:
    """The name of a form, as the string that sorts and shows it."""
    c, q = form
    support = [i for i, ci in enumerate(c, 1) if ci]
    if len(support) == 1:
        return f"D{support[0]}({ec_neg(q).key()})"
    if len(support) == 2 and q.infinity:
        i, j = support
        return f"{'Delta' if c[j - 1] < 0 else 'Psi'}{i},{j}"
    if min(c) == 1:
        return f"Dsum({q.key()})"
    raise DivisorError(f"no named class has the equation {c} . x + {q.key()} = 0")


def _form(c, q) -> tuple:
    """The normalized form of sum(c_i * x_i) + q = 0, checked to name a class."""
    if next(ci for ci in c if ci) < 0:
        c, q = [-ci for ci in c], ec_neg(q)
    _class_key((tuple(c), q))  # raises DivisorError on a form with no name
    return tuple(c), q


class ProductDivisorClass(LinComb):
    """Formal sum of named codimension-1 classes on E^n, keyed by their forms."""

    __slots__ = labels = ("curve", "n")
    sort_key = staticmethod(_class_key)
    error = DivisorError

    @classmethod
    def of(cls, curve: EllipticCurve, n: int, items) -> "ProductDivisorClass":
        """The sum over (name, coefficient) items."""
        return cls(((_parse_class(curve, n, k), c) for k, c in items), curve, n)

    def diff(self, other: "ProductDivisorClass"):
        """Term-by-term difference report: tuple of (class key, self coeff,
        other coeff), in class-key order."""
        terms = (self - other).terms
        return tuple((_class_key(k), self.get(k, 0), other.get(k, 0)) for k, _ in terms)

    def _term_repr(self, form, coeff) -> str:
        return f"{coeff}*{_class_key(form)}"


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


class FnDivisorReport(Frozen):
    """Both readings of (F_n) plus their term-by-term difference.

    `product` is the divisor of the defining product
    F-bar_n * h_n^{-1}(z_2) ... h_n^{-1}(z_n); `displayed` is the closed-form
    divisor with poles at u in every coordinate.  The two disagree (the
    product leaves coordinate 1 with poles at 0), so both are returned and
    the difference is flagged downstream.
    """

    def __init__(self, product: ProductDivisorClass, displayed: ProductDivisorClass, difference):
        _set(self, "product", product)
        _set(self, "displayed", displayed)
        _set(self, "difference", difference)

    def _args(self) -> tuple:
        return self.product, self.displayed, self.difference


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


class PointExpr(Frozen):
    """sum(c_k * t_k) + const, with integer coefficients in named E-valued
    parameters and a point constant."""

    __slots__ = ("curve", "coeffs", "const")

    def __init__(self, curve: EllipticCurve, coeffs: tuple, const: CurvePoint):
        _set(self, "curve", curve)
        _set(self, "coeffs", coeffs)  # tuple of (name, int), sorted by name, nonzero
        _set(self, "const", const)

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

    def evaluate(self, assignment) -> CurvePoint:
        """The point at an assignment {name: point} of the parameters."""
        acc = self.const
        for name, c in self.coeffs:
            acc = ec_add(acc, ec_scalar_mul(c, assignment[name]))
        return acc

    def key(self) -> tuple:
        """The serialization under the expression's own names."""
        return self.coeffs, self.const.key()

    def _args(self) -> tuple:
        return self.curve, self.coeffs, self.const

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.curve, self.coeffs, self.const) == (other.curve, other.coeffs, other.const)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    def __repr__(self) -> str:
        return render_expr(self.key())


def render_expr(ser) -> str:
    items, const = ser
    return "+".join(f"{c}{n}" for n, c in items) + f"|{const}"


def class_equation(form, args) -> PointExpr:
    """sum(c_i * args[i]) + q for the form (c, q): the expression that
    vanishes where the point (args[0], .., args[n-1]) of E^n lies on the
    class."""
    c, q = form
    items, const = [], q
    for ci, a in zip(c, args):
        if ci:
            items += [(name, ci * v) for name, v in a.coeffs]
            const = ec_add(const, a.const if ci > 0 else ec_neg(a.const))
    return PointExpr.make(q.curve, items, const)


class SymbolicDivisor(LinComb):
    """Formal divisor whose points are affine expressions."""

    __slots__ = labels = ("curve",)
    sort_key = staticmethod(PointExpr.key)
    error = DivisorError

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
    for form, c in cls.terms:
        eq = class_equation(form, point)
        if t in eq.params():
            out.append((eq.solve(t), c))
        elif eq.is_const() and eq.const.infinity:
            raise DegeneracyError(f"fixed values lie on {_class_key(form)}")
    return SymbolicDivisor(out, cls.curve)


# ---------------------------------------------------------------------------
# the (Z/2Z)^2 alternating projection on E^2 classes


def _negate_coordinate(form, k: int):
    """The image of a class under x_k -> -x_k."""
    c, q = form
    return _form([-ci if i == k else ci for i, ci in enumerate(c, 1)], q)


def alt_project_square(cls: ProductDivisorClass) -> ProductDivisorClass:
    """Sum over (Z/2Z)^2 of sign(g) * g acting on an E^2 class by negations."""
    if cls.n != 2:
        raise DivisorError("alternating projection is defined on E^2 classes")
    items = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            sign = (-1) ** (e1 + e2)
            for form, c in cls.items():
                if e1:
                    form = _negate_coordinate(form, 1)
                if e2:
                    form = _negate_coordinate(form, 2)
                items.append((form, c * sign))
    return ProductDivisorClass(items, cls.curve, 2)


def swap_factors_square(cls: ProductDivisorClass) -> ProductDivisorClass:
    """Pushforward along the swap (x, y) -> (y, x) of E^2."""
    if cls.n != 2:
        raise DivisorError("factor swap is defined on E^2 classes")
    return ProductDivisorClass(((_form(c[::-1], q), v) for (c, q), v in cls.items()), cls.curve, 2)
