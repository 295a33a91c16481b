"""Divisor recipes, fiber restriction, principality, the alternating projection."""

import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmotive.curves import CurvePoint, ec_add, ec_neg, enumerate_points, full_two_torsion
from ellmotive.divisors import (
    DegeneracyError,
    DivisorError,
    FormalDivisor,
    PointExpr,
    ProductDivisorClass,
    _class_key,
    _form,
    _negate_coordinate,
    _parse_class,
    alt_project_square,
    class_equation,
    is_principal,
    make_fbar_divisor,
    make_fn_divisor,
    make_hn_divisor,
    restrict_to_fiber,
    swap_factors_square,
)
from ellmotive.fixtures import (
    generator,
    rank_one_curve,
    standard_functions,
    two_torsion_curve_f11,
    two_torsion_curve_f101,
)


@pytest.fixture(scope="module")
def E():
    return rank_one_curve()


@pytest.fixture(scope="module")
def torsion():
    E11 = two_torsion_curve_f11()
    u, v, w = full_two_torsion(E11)
    return E11, u, v, w


def zero(E):
    return CurvePoint.at_infinity(E)


def test_fbar2_display(E):
    cls = make_fbar_divisor(E, 2)
    assert cls.coeff(("Delta", 1, 2)) == 1
    assert cls.coeff(("Psi", 1, 2)) == 1
    assert cls.coeff(("D", 1, zero(E))) == -2
    assert cls.coeff(("D", 2, zero(E))) == -2
    assert len(cls.terms) == 4


def test_fbar3_display(E):
    cls = make_fbar_divisor(E, 3)
    for i in range(1, 4):
        assert cls.coeff(("D", i, zero(E))) == -3
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert cls.coeff(("Delta", i, j)) == 1
    assert cls.coeff(("Dsum", zero(E))) == 1


def test_fbar2_swap_invariant(E):
    cls = make_fbar_divisor(E, 2)
    assert swap_factors_square(cls).terms == cls.terms


def test_fbar_requires_n_at_least_2(E):
    with pytest.raises(DivisorError):
        make_fbar_divisor(E, 1)


def test_hn_divisors(torsion):
    E11, u, v, w = torsion
    h2 = make_hn_divisor(2, u, v)
    assert h2.coeff(u) == 2 and h2.coeff(zero(E11)) == -2
    h3 = make_hn_divisor(3, u, v)
    assert h3.coeff(u) == 1 and h3.coeff(v) == 1 and h3.coeff(w) == 1
    assert h3.coeff(zero(E11)) == -3
    for n in (2, 3, 4, 5):
        d = make_hn_divisor(n, u, v)
        assert d.degree() == 0
        assert is_principal(d)


def test_hn_rejects_bad_torsion(torsion):
    E11, u, v, _ = torsion
    P = CurvePoint.affine(E11, 1, 2)
    with pytest.raises(DivisorError):
        make_hn_divisor(2, P, v)
    with pytest.raises(DivisorError):
        make_hn_divisor(2, u, u)


def test_fn_divisor_both_readings(torsion):
    E11, u, v, _ = torsion
    rep = make_fn_divisor(E11, 2, u, v)
    # product reading: Delta + Psi - 2 D1(0) - 2 D2(u)
    assert rep.product.coeff(("D", 1, zero(E11))) == -2
    assert rep.product.coeff(("D", 2, u)) == -2
    assert rep.product.coeff(("Delta", 1, 2)) == 1
    assert rep.product.coeff(("Psi", 1, 2)) == 1
    # displayed reading: -2 D1(u) - 2 D2(u) + Delta + D3(0) (= Psi on E^2)
    assert rep.displayed.coeff(("D", 1, u)) == -2
    assert rep.displayed.coeff(("D", 2, u)) == -2
    assert rep.displayed.coeff(("Psi", 1, 2)) == 1
    assert rep.difference  # the diff report is nonempty


def test_fn_odd_case(torsion):
    E11, u, v, w = torsion
    rep = make_fn_divisor(E11, 3, u, v)
    assert rep.displayed.coeff(("D", 2, u)) == -1
    assert rep.displayed.coeff(("D", 2, v)) == -1
    assert rep.displayed.coeff(("D", 2, w)) == -1
    # the product reading keeps coordinate 1 poles at 0
    assert rep.product.coeff(("D", 1, zero(E11))) == -3
    assert rep.product.coeff(("D", 1, u)) == 0


def test_restrict_fbar2_generic(E):
    cls = make_fbar_divisor(E, 2)
    q = PointExpr.param(E, "q")
    sym = restrict_to_fiber(cls, 1, {2: q})
    # (q) + (-q) - 2(0): degree 0, sum 0
    assert sym.degree() == 0
    P = generator(E)
    conc = sym.evaluate({"q": P})
    assert conc.coeff(P) == 1
    assert conc.coeff(ec_neg(P)) == 1
    assert conc.coeff(zero(E)) == -2
    assert is_principal(conc)


def test_restrict_fbar3_generic(E):
    cls = make_fbar_divisor(E, 3)
    fixed = {2: PointExpr.param(E, "q2"), 3: PointExpr.param(E, "q3")}
    sym = restrict_to_fiber(cls, 1, fixed)
    assert sym.degree() == 0
    P = generator(E)
    Q = ec_add(P, P)
    conc = sym.evaluate({"q2": P, "q3": Q})
    assert conc.coeff(zero(E)) == -3
    assert conc.coeff(P) == 1
    assert conc.coeff(Q) == 1
    assert conc.coeff(ec_neg(ec_add(P, Q))) == 1
    assert is_principal(conc)


def test_restrict_disjoint_fiber(E):
    P = generator(E)
    cls = ProductDivisorClass.of(E, 2, [(("D", 2, P), 1)])
    sym = restrict_to_fiber(cls, 1, {2: PointExpr.param(E, "q")})
    assert not sym.terms


def test_restrict_degeneracy_named(E):
    P = generator(E)
    cls = ProductDivisorClass.of(E, 2, [(("D", 2, P), 1)])
    with pytest.raises(DegeneracyError):
        restrict_to_fiber(cls, 1, {2: PointExpr.constant(P)})


@pytest.mark.parametrize("kind, sign", [("Psi", -1), ("Delta", 1)])
def test_restrict_symbolic_degeneracy(E, kind, sign):
    # x2 = q, x3 = -q lies on Psi_{2,3} (x3 = q on Delta_{2,3}) for every q
    cls = ProductDivisorClass.of(E, 3, [((kind, 2, 3), 1), (("D", 1, zero(E)), 1)])
    q = PointExpr.param(E, "q")
    with pytest.raises(DegeneracyError):
        restrict_to_fiber(cls, 1, {2: q, 3: q.scale(sign)})


_F101 = two_torsion_curve_f101()
_F101_POINTS = enumerate_points(_F101)


@st.composite
def _classes_and_points(draw):
    """A random class on E^n over F_101, a fiber coordinate and a point for
    every other coordinate."""
    n = draw(st.integers(2, 4))
    point = st.sampled_from(_F101_POINTS)
    index = st.integers(1, n)
    kinds = [
        st.tuples(st.just("D"), index, point),
        st.tuples(st.sampled_from(("Delta", "Psi")), index, index).filter(lambda k: k[1] != k[2]),
        st.tuples(st.just("Dsum"), point),
    ]
    items = draw(st.lists(st.tuples(st.one_of(kinds), st.integers(-3, 3)), max_size=6))
    i = draw(index)
    values = {j: draw(point) for j in range(1, n + 1) if j != i}
    return ProductDivisorClass.of(_F101, n, items), i, values


@settings(max_examples=300, deadline=None)
@given(_classes_and_points())
def test_generic_restriction_agrees_with_constant_points(case):
    cls, i, values = case
    try:
        at_points = restrict_to_fiber(cls, i, {j: PointExpr.constant(p) for j, p in values.items()})
    except DegeneracyError:
        return  # the points lie on a class; the generic fiber does not
    generic = restrict_to_fiber(cls, i, {j: PointExpr.param(_F101, f"q{j}") for j in values})
    assert generic.evaluate({f"q{j}": p for j, p in values.items()}) == at_points.evaluate({})


def test_fiberwise_principality_random_f101():
    E = two_torsion_curve_f101()
    pts = [p for p in enumerate_points(E) if not p.infinity]
    rng = random.Random(0)
    for n in (2, 3, 4):
        cls = make_fbar_divisor(E, n)
        for i in range(1, n + 1):
            done = 0
            while done < 5:
                fixed = {j: PointExpr.param(E, f"q{j}") for j in range(1, n + 1) if j != i}
                values = {f"q{j}": rng.choice(pts) for j in range(1, n + 1) if j != i}
                try:
                    conc = restrict_to_fiber(cls, i, fixed).evaluate(values)
                except DegeneracyError:
                    continue
                done += 1
                assert conc.degree() == 0
                assert is_principal(conc)


def test_is_principal_examples(E):
    P = generator(E)
    assert not is_principal(FormalDivisor.of(E, [(P, 1), (ec_neg(P), -1)]))
    assert is_principal(FormalDivisor.of(E, []))
    E11, u, v, _ = two_torsion_curve_f11(), *full_two_torsion(two_torsion_curve_f11())
    assert is_principal(FormalDivisor.of(E11, [(u, 2), (zero(E11), -2)]))
    with pytest.raises(DivisorError):
        is_principal(FormalDivisor.of(E, [(P, Fraction(1, 2))]))


def test_alt_project_square_identities(E):
    delta = ProductDivisorClass.of(E, 2, [(("Delta", 1, 2), 1)])
    psi = ProductDivisorClass.of(E, 2, [(("Psi", 1, 2), 1)])
    assert alt_project_square(delta).terms == (delta.scale(2) - psi.scale(2)).terms
    assert alt_project_square(psi).terms == (psi.scale(2) - delta.scale(2)).terms
    d0 = ProductDivisorClass.of(E, 2, [(("D", 1, zero(E)), 1)])
    assert not alt_project_square(d0).terms
    P = generator(E)
    dP = ProductDivisorClass.of(E, 2, [(("D", 1, P), 1)])
    assert not alt_project_square(dP).terms
    # idempotent up to the group order
    alt = alt_project_square(delta)
    assert alt_project_square(alt).terms == alt.scale(4).terms
    # swap commutes
    mixed = delta + dP.scale(3)
    assert (
        alt_project_square(swap_factors_square(mixed)).terms
        == swap_factors_square(alt_project_square(mixed)).terms
    )
    with pytest.raises(DivisorError):
        alt_project_square(make_fbar_divisor(E, 3))


def test_dsum_normalizes_to_psi_on_square(E):
    cls = ProductDivisorClass.of(E, 2, [(("Dsum", zero(E)), 1)])
    assert cls.coeff(("Psi", 1, 2)) == 1


# ---------------------------------------------------------------------------
# classes stored as their affine forms


@pytest.mark.parametrize(
    "n, named, key",
    [
        (2, ("D", 2, "P"), "D2({P})"),
        (2, ("Delta", 2, 1), "Delta1,2"),
        (2, ("Psi", 2, 1), "Psi1,2"),
        (2, ("Dsum", "zero"), "Psi1,2"),
        (2, ("Dsum", "P"), "Dsum({P})"),
        (3, ("D", 1, "zero"), "D1({zero})"),
        (3, ("Delta", 3, 1), "Delta1,3"),
        (3, ("Psi", 3, 2), "Psi2,3"),
        (3, ("Dsum", "zero"), "Dsum({zero})"),
        (4, ("D", 4, "negP"), "D4({negP})"),
        (4, ("Delta", 4, 2), "Delta2,4"),
        (4, ("Psi", 1, 4), "Psi1,4"),
        (4, ("Dsum", "P"), "Dsum({P})"),
    ],
)
def test_name_to_form_to_key_normalizes(E, n, named, key):
    P = generator(E)
    points = {"P": P, "negP": ec_neg(P), "zero": zero(E)}
    named = tuple(points.get(a, a) for a in named)
    key = key.format(**{label: point.key() for label, point in points.items()})
    assert _class_key(_parse_class(E, n, named)) == key


def test_negating_a_coordinate(E):
    P = generator(E)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            form = _parse_class(E, n, ("D", k, P))
            assert _negate_coordinate(form, k) == _parse_class(E, n, ("D", k, ec_neg(P)))
            other = _parse_class(E, n, ("D", 1 + k % n, P))
            assert _negate_coordinate(other, k) == other
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                delta = _parse_class(E, n, ("Delta", i, j))
                psi = _parse_class(E, n, ("Psi", i, j))
                for k in range(1, n + 1):
                    want = (psi, delta) if k in (i, j) else (delta, psi)
                    assert (_negate_coordinate(delta, k), _negate_coordinate(psi, k)) == want


def test_a_form_naming_no_class_raises_where_it_is_made(E):
    P = generator(E)
    for n in (2, 3, 4):
        for q in (P, zero(E)) if n > 2 else (P,):
            dsum = _parse_class(E, n, ("Dsum", q))
            with pytest.raises(DivisorError):
                _negate_coordinate(dsum, 1)
    with pytest.raises(DivisorError):
        _form((1, -1, 0), P)
    with pytest.raises(DivisorError):
        _form((0, 1, 1, 1), zero(E))


def _reference_equation(named, args):
    """The per-kind table of class equations, on normalized names."""
    kind = named[0]
    if kind == "D":
        return args[named[1] - 1] - PointExpr.constant(named[2])
    if kind == "Dsum":
        total = PointExpr.constant(named[1])
        for a in args:
            total = total + a
        return total
    i, j = sorted(named[1:])
    return args[i - 1] - args[j - 1] if kind == "Delta" else args[i - 1] + args[j - 1]


@st.composite
def _named_class_and_args(draw):
    n = draw(st.integers(2, 4))
    point = st.sampled_from(_F101_POINTS)
    index = st.integers(1, n)
    named = draw(
        st.one_of(
            st.tuples(st.just("D"), index, point),
            st.tuples(st.sampled_from(("Delta", "Psi")), index, index).filter(
                lambda k: k[1] != k[2]
            ),
            st.tuples(st.just("Dsum"), point),
        )
    )
    args = []
    for _ in range(n):
        coeffs = draw(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-2, 2)), max_size=3))
        args.append(PointExpr.make(_F101, coeffs, draw(point)))
    return named, tuple(args)


@settings(max_examples=300, deadline=None)
@given(_named_class_and_args())
def test_class_equation_matches_the_per_kind_table(case):
    named, args = case
    form = _parse_class(_F101, len(args), named)
    assert class_equation(form, args) == _reference_equation(named, args)


def test_divisor_serialization_roundtrip(E):
    curve, gs = standard_functions(1)
    payload = gs[0].divisor.serialize()
    assert all(set(t) == {"point", "coeff"} for t in payload)
    assert sum(Fraction(t["coeff"]) for t in payload) == 0
