"""Exact field arithmetic and the elliptic-curve group law."""

import copy
import importlib
import itertools
import math
import pickle
import pkgutil
import random

import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellmotive.curves import (
    CurveError,
    _rational_cubic_roots,
    _two_torsion_cubic,
    CurvePoint,
    EllipticCurve,
    ec_add,
    ec_neg,
    ec_scalar_mul,
    enumerate_points,
    full_two_torsion,
    is_two_torsion,
)
import ellmotive
from ellmotive.cycles import FbarSpec, FnSpec, FunCoord, ParamCycle, PointExpr, UserFunction
from ellmotive.cycles import _ProductSpec
from ellmotive.divisors import FormalDivisor, make_fn_divisor
from ellmotive.fields import FieldError, PrimeField, RationalField, field_from_tag
from ellmotive.fields import _PRIME_BOUND, _is_prime
from ellmotive.fixtures import generator, rank_one_curve, standard_functions, two_torsion_curve_f11
from ellmotive.frozen import Frozen, FrozenError
from ellmotive.gl2 import PureMotive
from ellmotive.lincomb import LinComb
from ellmotive.symgrp import _inverse
from reference import permute_ecoords, rational_add, rational_roots_by_divisors, rename_params


def test_prime_field_ops():
    F = PrimeField(11)
    assert F.reduce(7 + 8) == 4
    assert F.reduce(7 * 8) == 1
    assert F.div(1, 7) == 8
    assert F.coerce(Fraction(1, 7)) == 8
    with pytest.raises(FieldError):
        F.div(3, 0)
    with pytest.raises(FieldError):
        PrimeField(10)
    with pytest.raises(FieldError):
        PrimeField(2)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10**4) if _is_prime(n) != _trial_division(n)] == []


def test_large_prime_moduli():
    # Miller-Rabin on the primes up to 37: a Mersenne prime is accepted at
    # once; the Carmichael numbers 561 and 41041 and 3215031751, a strong
    # pseudoprime to the bases 2, 3, 5 and 7, are rejected
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    for n in (561, 41041, 3215031751):
        with pytest.raises(FieldError, match="not prime"):
            PrimeField(n)
    # at and above the bound the witnesses decide nothing
    for n in (_PRIME_BOUND, 10**24 + 7):
        with pytest.raises(FieldError, match="too large"):
            PrimeField(n)


@pytest.mark.parametrize("F", [RationalField(), PrimeField(11)], ids=["Q", "F_11"])
def test_fields_coerce_numbers_not_strings(F):
    # config strings are parsed into Fractions before they reach a field
    assert F.coerce(Fraction(1, 7)) == F.div(1, 7)
    with pytest.raises(FieldError, match="cannot coerce"):
        F.coerce("1/7")


def test_field_tags():
    assert isinstance(field_from_tag("rational"), RationalField)
    assert field_from_tag("prime:11").p == 11
    with pytest.raises(FieldError):
        field_from_tag("complex")


def test_singular_curve_rejected():
    with pytest.raises(CurveError):
        EllipticCurve.from_coeffs(RationalField(), 0, 0, 0, 0, 0)


def test_group_law_examples():
    # on y^2 + y = x^3 - x: 2(0,0) = (1,0), 3(0,0) = (-1,-1), -(0,0) = (0,-1)
    E = rank_one_curve()
    P = generator(E)
    assert ec_add(P, P) == CurvePoint.affine(E, 1, 0)
    assert ec_scalar_mul(2, P) == CurvePoint.affine(E, 1, 0)
    assert ec_scalar_mul(3, P) == CurvePoint.affine(E, -1, -1)
    assert ec_neg(P) == CurvePoint.affine(E, 0, -1)
    assert ec_scalar_mul(1, P) == P
    assert ec_scalar_mul(0, P).infinity


def test_identity_and_inverse():
    E = rank_one_curve()
    P = generator(E)
    O = CurvePoint.at_infinity(E)
    assert ec_add(P, O) == P
    assert ec_add(O, P) == P
    assert ec_add(P, ec_neg(P)).infinity
    assert ec_neg(O) == O
    # inverse pair from the divisor recipes: (0,0) + (0,-1) = 0
    assert ec_add(P, CurvePoint.affine(E, 0, -1)).infinity


def test_short_weierstrass_negation_symmetry():
    E = two_torsion_curve_f11()  # a1 = a3 = 0
    P = CurvePoint.affine(E, 1, 2)
    assert ec_neg(P) == CurvePoint.affine(E, 1, -2)


def test_mismatched_curves():
    E1, E2 = rank_one_curve(), two_torsion_curve_f11()
    with pytest.raises(CurveError):
        ec_add(generator(E1), CurvePoint.at_infinity(E2))


def test_off_curve_point_rejected():
    with pytest.raises(CurveError):
        CurvePoint.affine(rank_one_curve(), 5, 5)


def test_two_torsion_f11():
    E = two_torsion_curve_f11()
    tors = full_two_torsion(E)
    keys = {t.key() for t in tors}
    assert keys == {"(0,0)", "(2,0)", "(5,0)"}
    u, v, w = tors
    assert ec_add(u, v) in tors
    for t in tors:
        assert ec_add(t, t).infinity


def _copies(E):
    """An equal curve built separately, a copy and a pickled copy of E."""
    E2 = EllipticCurve.from_coeffs(E.field, E.a1, E.a2, E.a3, E.a4, E.a6)
    return [E2, copy.copy(E), pickle.loads(pickle.dumps(E))]


def test_two_torsion_is_found_once_per_curve(monkeypatch):
    from ellmotive import curves

    solved = []
    real = curves._two_torsion_cubic
    monkeypatch.setattr(curves, "_two_torsion_cubic", lambda E: solved.append(E) or real(E))
    E = two_torsion_curve_f11()
    tors = full_two_torsion(E)
    tors.append(None)  # the caller's list is its own
    assert full_two_torsion(E) == tors[:3] and solved == [E]
    # equal curves and copies keep their own memo, and start with it empty
    for other in _copies(E):
        assert full_two_torsion(other) == tors[:3]
        assert solved[-1] is other
    assert len(solved) == 4


def test_identity_is_one_point_per_curve():
    E = rank_one_curve()
    O, P = CurvePoint.at_infinity(E), generator(E)
    assert CurvePoint.at_infinity(E) is O
    assert ec_add(P, ec_neg(P)) is O and ec_scalar_mul(0, P) is O
    for other in _copies(E):
        O2 = CurvePoint.at_infinity(other)
        assert O2 is not O and O2 == O and hash(O2) == hash(O)
        # a point on an equal curve adds like one on E: identity, then equality
        Q = CurvePoint.affine(other, P.x, P.y)
        assert ec_add(P, Q) == ec_add(P, P) and ec_add(Q, O) is Q


def test_group_law_hands_out_one_point_per_value():
    E = rank_one_curve()
    P = generator(E)
    P2 = ec_add(P, P)
    assert ec_add(P, P2) is ec_add(P2, P)
    assert ec_neg(ec_neg(P2)) is P2
    # 4P by doubling and by three chord steps is one object
    assert ec_add(ec_add(P2, P), P) is ec_add(P2, P2) is ec_scalar_mul(4, P)


def test_two_torsion_rational_empty():
    # the cubic 4x^3 - 4x + 1 has no rational root
    assert full_two_torsion(rank_one_curve()) == []


def _two_torsion_by_search(E):
    """The points T != 0 with T = -T of E(F_p), trying every x: such a T has
    y = -(a1 x + a3) / 2."""
    F = E.field
    found = []
    for x in F.elements():
        y = F.div(-E.a1 * x - E.a3, 2)
        if E.contains(x, y):
            found.append(CurvePoint(E, x, y))
    return sorted(found, key=lambda T: T.key())


def test_two_torsion_matches_a_search_on_every_prime_below_1000():
    # the F_11 / F_101 model y^2 = x(x-2)(x-5) and the rank-one model
    full = 0
    for p in filter(_is_prime, range(3, 1000)):
        for coeffs in ((0, -7, 0, 10, 0), (0, 0, 1, -1, 0)):
            try:
                E = EllipticCurve.from_coeffs(PrimeField(p), *coeffs)
            except CurveError:
                continue  # singular mod p
            tors = full_two_torsion(E)
            assert tors == _two_torsion_by_search(E), (p, coeffs)
            assert all(is_two_torsion(T) for T in tors)
            full += len(tors) == 3
    assert full > 100


def test_two_torsion_over_q_matches_the_rational_root_test():
    # the rational curves of the tests and every small model a1, a3 in
    # {0, 1}, a2, a4, a6 in [-3, 3]
    models = [(0, 0, 1, -1, 0), (0, 0, 0, 0, 1), (0, 0, 0, -1, 0)]
    models += [
        (a1, a2, a3, a4, a6)
        for a1, a3 in itertools.product((0, 1), repeat=2)
        for a2, a4, a6 in itertools.product(range(-3, 4), repeat=3)
    ]
    counts = set()
    for coeffs in models:
        try:
            E = EllipticCurve.from_coeffs(RationalField(), *coeffs)
        except CurveError:
            continue
        xs = [T.x for T in full_two_torsion(E)]
        assert sorted(xs) == rational_roots_by_divisors(*_two_torsion_cubic(E)), coeffs
        counts.add(len(xs))
    assert counts == {0, 1, 3}


def test_two_torsion_of_large_coefficients_is_found_at_once():
    # the 2-division cubics of these curves have constant terms near 10^36
    # and roots near 10^18: trial division or a scan of F_p would not end
    Q, big = RationalField(), 10**18
    E = EllipticCurve.from_coeffs(Q, 0, 0, 0, -(big**2), 0)
    assert [T.x for T in full_two_torsion(E)] == [-big, 0, big]
    assert full_two_torsion(EllipticCurve.from_coeffs(Q, 0, 0, 0, -1, big**2 + 1)) == []
    r = Fraction(big + 1, 3)
    E = EllipticCurve.from_coeffs(Q, 0, -3 * r, 0, 2 * r * r, 0)  # x(x - r)(x - 2r)
    assert [T.x for T in full_two_torsion(E)] == [0, r, 2 * r]
    Fp = PrimeField(2**61 - 1)
    E = EllipticCurve.from_coeffs(Fp, 0, 0, 0, -1, 0)  # x(x - 1)(x + 1)
    assert [T.x for T in full_two_torsion(E)] == [0, 1, Fp.p - 1]
    for T in full_two_torsion(EllipticCurve.from_coeffs(Fp, 0, 0, 0, 1, 1)):
        assert is_two_torsion(T) and T.y == 0


def test_reduction_mod_p_respects_the_group_law():
    # kP + lP over Q, reduced into F_10007, is the same sum on the reduced model
    E = rank_one_curve()
    Fp = PrimeField(10007)
    Ep = EllipticCurve.from_coeffs(Fp, E.a1, E.a2, E.a3, E.a4, E.a6)
    assert Ep.discriminant() == Fp.coerce(E.discriminant())
    P = generator(E)
    Pp = CurvePoint.affine(Ep, P.x, P.y)

    def reduced(S):
        if S.infinity:
            return CurvePoint.at_infinity(Ep)
        x, y = Fp.coerce(S.x), Fp.coerce(S.y)
        assert E.contains(S.x, S.y) and Ep.contains(x, y)
        return CurvePoint(Ep, x, y)

    for k in range(-14, 15):
        for l in range(-14, 15):
            S = ec_add(ec_scalar_mul(k, P), ec_scalar_mul(l, P))
            assert reduced(S) == ec_add(ec_scalar_mul(k, Pp), ec_scalar_mul(l, Pp))


_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _times_linear(poly, r):
    """poly * (x - r), coefficients from the leading one down."""
    return [a - r * b for a, b in zip(poly + [0], [0] + poly)]


@given(
    lead=_fractions.filter(bool),
    roots=st.lists(_fractions, min_size=1, max_size=3).filter(lambda rs: len(rs) != 2),
    c=st.integers(1, 9),
)
@example(lead=Fraction(4), roots=[Fraction(0), Fraction(0), Fraction(3, 2)], c=1)
@example(lead=Fraction(-2, 3), roots=[Fraction(0), Fraction(0), Fraction(0)], c=1)
@example(lead=Fraction(1), roots=[Fraction(0)], c=2)
@settings(max_examples=200, deadline=None)
def test_rational_cubic_roots_recovers_chosen_roots(lead, roots, c):
    # three chosen roots, or one times x^2 + c (which has no real root)
    poly = [lead] if len(roots) == 3 else [lead, 0, lead * c]
    for r in roots:
        poly = _times_linear(poly, r)
    assert _rational_cubic_roots(*poly) == sorted(set(roots))


def test_group_law_properties_random():
    from ellmotive.fixtures import two_torsion_curve_f101

    for E in (two_torsion_curve_f11(), two_torsion_curve_f101()):
        pts = enumerate_points(E)
        rng = random.Random(7)
        for _ in range(60):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert ec_add(ec_add(P, Q), R) == ec_add(P, ec_add(Q, R))
            assert ec_add(P, Q) == ec_add(Q, P)
            assert ec_add(P, ec_neg(P)).infinity
            S = ec_add(P, Q)
            if not S.infinity:
                assert E.contains(S.x, S.y)


def test_order_annihilates():
    for make in (two_torsion_curve_f11,):
        E = make()
        pts = enumerate_points(E)
        order = len(pts)
        for P in pts:
            assert ec_scalar_mul(order, P).infinity


def test_point_enumeration_only_prime_fields():
    with pytest.raises(CurveError):
        enumerate_points(rank_one_curve())


def test_is_two_torsion_includes_identity():
    E = rank_one_curve()
    assert is_two_torsion(CurvePoint.at_infinity(E))
    assert not is_two_torsion(generator(E))


# ---------------------------------------------------------------------------
# hash/equality properties over random smooth curves mod p <= 101

_PRIMES = [p for p in range(3, 102) if all(p % d for d in range(2, p))]


@st.composite
def _curves(draw):
    p = draw(st.sampled_from(_PRIMES))
    coeffs = draw(st.tuples(*[st.integers(0, p - 1)] * 5))
    try:
        return EllipticCurve.from_coeffs(PrimeField(p), *coeffs)
    except CurveError:
        assume(False)


@st.composite
def _points(draw, E):
    """An affine point found from a drawn x, or the identity if E(F_p) = {0}."""
    p = E.field.p
    x0 = draw(st.integers(0, p - 1))
    for dx in range(p):
        x = (x0 + dx) % p
        ys = [y for y in range(p) if E.contains(x, y)]
        if ys:
            return CurvePoint.affine(E, x, draw(st.sampled_from(ys)))
    return CurvePoint.at_infinity(E)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_computed_points_hash_like_affine_points(data):
    E = data.draw(_curves())
    P, Q = data.draw(_points(E)), data.draw(_points(E))
    k = data.draw(st.integers(-6, 6))
    # an equal curve built separately: equality and hashes must not rely on identity
    E2 = EllipticCurve.from_coeffs(E.field, E.a1, E.a2, E.a3, E.a4, E.a6)
    assert E2 == E and hash(E2) == hash(E) and E2.key() == E.key()
    for R in (ec_add(P, Q), ec_scalar_mul(k, P), ec_add(ec_neg(P), P)):
        h = hash(R)  # hash before key, the fresh point below the other way round
        if R.infinity:
            fresh = CurvePoint.at_infinity(E2)
        else:
            fresh = CurvePoint.affine(E2, R.x, R.y)
        assert fresh.key() == R.key()
        assert fresh == R and hash(fresh) == h
        assert len({R, fresh}) == 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_param_cycle_moves_round_trip(data):
    E = data.draw(_curves())
    P, Q = data.draw(_points(E)), data.draw(_points(E))
    k = data.draw(st.integers(-3, 3).filter(bool))
    s, t = PointExpr.param(E, "s"), PointExpr.param(E, "t")
    ecoords = ((s + t) - PointExpr.constant(P), s.scale(k), (t - s) - PointExpr.constant(Q))
    qcoords = (FunCoord(FbarSpec(E, 2), (s - PointExpr.constant(Q), t.scale(k))),)
    cycle = ParamCycle(E, ("s", "t"), ecoords, qcoords)
    h = hash(cycle)
    sigma = tuple(data.draw(st.permutations((1, 2, 3))))
    moved = permute_ecoords(permute_ecoords(cycle, sigma), _inverse(sigma))
    assert moved == cycle and hash(moved) == h
    # renaming s, t -> v, u reverses the sorted coefficient order and back
    renamed = rename_params(cycle, {"s": "v", "t": "u"})
    moved = rename_params(renamed, {"v": "s", "u": "t"})
    assert renamed != cycle
    assert moved == cycle and hash(moved) == h


@pytest.mark.parametrize("n", [1, -1])
def test_scalar_mul_by_unit_adds_once(monkeypatch, n):
    # doubling stops with the last set bit: +-1 needs one addition, no doubling
    from ellmotive import curves

    calls = []

    def counted(P, Q):
        calls.append((P, Q))
        return ec_add(P, Q)

    monkeypatch.setattr(curves, "ec_add", counted)
    P = generator(rank_one_curve())
    assert curves.ec_scalar_mul(n, P) == (P if n == 1 else ec_neg(P))
    assert len(calls) == 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_scalar_mul_matches_repeated_addition(data):
    E = data.draw(_curves())
    P = data.draw(_points(E))
    n = data.draw(st.integers(-40, 40))
    Q = CurvePoint.at_infinity(E)
    for _ in range(abs(n)):
        Q = ec_add(Q, P if n > 0 else ec_neg(P))
    assert ec_scalar_mul(n, P) == Q


def _value_twins():
    """(value, an equal value built separately, a field name) for every
    immutable value type, with the lazy caches of the first value filled."""
    E = two_torsion_curve_f11()
    E2 = EllipticCurve.from_coeffs(E.field, E.a1, E.a2, E.a3, E.a4, E.a6)
    u, v, _ = full_two_torsion(E)
    u2, v2 = (CurvePoint.affine(E2, T.x, T.y) for T in (u, v))
    s, s2 = PointExpr.param(E, "s"), PointExpr.param(E2, "s")
    fbar, fbar2 = FbarSpec(E, 2), FbarSpec(E2, 2)
    fn, fn2 = FnSpec(E, 2, u, v), FnSpec(E2, 2, u2, v2)
    q, q2 = FunCoord(fbar, (s, s)), FunCoord(fbar2, (s2, s2))
    cycle, cycle2 = ParamCycle(E, ("s",), (s,), (q,)), ParamCycle(E2, ("s",), (s2,), (q2,))
    Q, (g,) = standard_functions(1)
    g2 = UserFunction(g.name, FormalDivisor.of(Q, list(g.divisor.items())))
    twins = [
        (E, E2, "field"),
        (u, u2, "curve"),
        (s, s2, "coeffs"),
        (fbar, fbar2, "n"),
        (fn, fn2, "u"),
        (q, q2, "args"),
        (cycle, cycle2, "qcoords"),
        (g, g2, "name"),
        (RationalField(), RationalField(), "p"),
        (PrimeField(11), PrimeField(11), "p"),
        (PureMotive(2, 1), PureMotive(2, 1), "m"),
        (make_fn_divisor(E, 2, u, v), make_fn_divisor(E, 2, u, v), "product"),
    ]
    for value, _, _ in twins:
        hash(value)
    u.key(), cycle.key(), fbar.components, g.components  # the other lazy caches
    return twins


def test_value_objects_stay_frozen():
    E = two_torsion_curve_f11()
    P = full_two_torsion(E)[0]
    hash(P)  # the lazily filled slots stay read-only too
    s = PointExpr.param(E, "s")
    cycle = ParamCycle(E, ("s",), (s,), ())
    hash(cycle)
    cases = [(E, "a1"), (E, "_hash"), (P, "x"), (P, "_key"), (s, "const"), (cycle, "_hash")]
    cases += [(value, name) for value, _, name in _value_twins()]
    cases.append((FormalDivisor.of(E, [(P, 1)]), "curve"))  # the linear combinations too
    for obj, name in cases:
        with pytest.raises(FrozenError):
            setattr(obj, name, None)
        with pytest.raises(FrozenError):
            delattr(obj, name)
    assert issubclass(FrozenError, AttributeError)


def test_value_objects_copy_and_pickle():
    # before and after the lazy caches are filled
    E = two_torsion_curve_f11()
    P = CurvePoint.affine(E, 2, 0)
    cycle = ParamCycle(E, ("s",), (PointExpr.param(E, "s") - PointExpr.constant(P),), ())
    for _ in range(2):
        for obj in (E, P, cycle):
            dups = (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)))
            assert all(dup == obj and hash(dup) == hash(obj) for dup in dups)
    twins = _value_twins()
    for obj, _, _ in twins:
        for dup in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert dup.__class__ is obj.__class__ and dup == obj
            assert hash(dup) == hash(obj)


def test_equal_values_hash_equal():
    twins = _value_twins()
    for value, twin, _ in twins:
        assert value is not twin and value == twin and not value != twin
        assert hash(value) == hash(twin)


def test_value_twins_cover_every_value_type():
    # every concrete Frozen type of src has its twins, so none comes or goes
    # without the immutability, copy and hash tests above; the linear
    # combinations are test_lincomb.py's, and _ProductSpec is abstract
    for info in pkgutil.iter_modules(ellmotive.__path__):
        importlib.import_module(f"ellmotive.{info.name}")
    types, stack = set(), [Frozen]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("ellmotive.") and not issubclass(sub, LinComb):
                types.add(sub)
                stack.append(sub)
    types.discard(_ProductSpec)
    assert {type(value) for value, _, _ in _value_twins()} == types


def test_values_of_different_classes_never_compare_equal():
    E = two_torsion_curve_f11()
    u, v, _ = full_two_torsion(E)
    fbar, fn = FbarSpec(E, 2), FnSpec(E, 2, u, v)
    assert fbar != fn and fn != fbar and not fbar == fn
    assert fbar.divisor_class() != fn.divisor_class()
    assert fbar != (E, 2) and PureMotive(1, 0) != (1, 0) and RationalField() != PrimeField(11)


# ---------------------------------------------------------------------------
# the per-curve group-law memo


def test_group_law_memo_returns_the_identical_point():
    E = rank_one_curve()
    P = generator(E)
    Q = ec_scalar_mul(2, P)
    S = ec_add(P, Q)
    assert ec_add(P, Q) is S
    # an equal point built separately hits the same entry
    assert ec_add(CurvePoint.affine(E, P.x, P.y), Q) is S
    assert ec_neg(S) is ec_neg(S) and ec_neg(ec_neg(S)) == S
    assert S == ec_scalar_mul(3, P)


def test_group_law_memo_still_checks_the_curve():
    E, F = two_torsion_curve_f11(), rank_one_curve()
    P = full_two_torsion(E)[0]
    ec_add(P, P)
    F_point = generator(F)
    with pytest.raises(CurveError):
        ec_add(P, F_point)
    with pytest.raises(CurveError):
        ec_add(F_point, P)


def test_group_law_memo_belongs_to_one_curve():
    E = rank_one_curve()
    P = generator(E)
    ec_add(P, ec_neg(P))
    ec_scalar_mul(5, P)
    assert E._sums and E._negs
    twin = EllipticCurve.from_coeffs(E.field, E.a1, E.a2, E.a3, E.a4, E.a6)
    dups = (copy.copy(E), copy.deepcopy(E), pickle.loads(pickle.dumps(E)), twin)
    for dup in dups:
        assert dup == E and hash(dup) == hash(E)
        assert not dup._sums and not dup._negs
    # equal curves do not share a memo: a sum on the twin lands on the twin
    Pt = CurvePoint.affine(twin, P.x, P.y)
    S = ec_add(Pt, Pt)
    assert S.curve is twin and (Pt, Pt) in twin._sums
    assert S == ec_add(P, P) and S is not ec_add(P, P)
    assert "_sums" not in repr(E) and "_negs" not in repr(E)


def _reference_neg(E, P):
    """-P from the formula, on coordinate pairs mod p (None is the identity)."""
    p = E.field.p
    if P is None:
        return None
    x, y = P
    return x, (-y - E.a1 * x - E.a3) % p


def _reference_add(E, P, Q):
    """P + Q from the chord-tangent formulas, on coordinate pairs mod p."""
    p = E.field.p
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2 + E.a1 * x2 + E.a3) % p == 0:
        return None
    if x1 == x2:
        num = 3 * x1 * x1 + 2 * E.a2 * x1 + E.a4 - E.a1 * y1
        den = 2 * y1 + E.a1 * x1 + E.a3
    else:
        num, den = y2 - y1, x2 - x1
    lam = num * pow(den, -1, p) % p
    x3 = (lam * lam + E.a1 * lam - E.a2 - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1 - E.a1 * x3 - E.a3) % p
    return x3, y3


def _pair(P):
    return None if P.infinity else (P.x, P.y)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_memoized_group_law_matches_the_formulas(data):
    E = data.draw(_curves())
    P, R = data.draw(_points(E)), data.draw(_points(E))
    # Q = P exercises doubling, Q = -P the vertical chord
    Q = data.draw(st.sampled_from([data.draw(_points(E)), P, ec_neg(P)]))
    for X, Y in ((P, Q), (P, P), (Q, R)):
        expected = _reference_add(E, _pair(X), _pair(Y))
        first, second = ec_add(X, Y), ec_add(X, Y)
        assert _pair(first) == _pair(second) == expected
        assert first.curve == E and (first.infinity or E.contains(first.x, first.y))
    assert _pair(ec_neg(P)) == _pair(ec_neg(P)) == _reference_neg(E, _pair(P))
    assert ec_add(P, Q) == ec_add(Q, P)
    assert ec_add(ec_add(P, Q), R) == ec_add(P, ec_add(Q, R))
    assert ec_add(P, ec_neg(P)).infinity and ec_add(ec_neg(P), P).infinity
    for T in full_two_torsion(E):
        # the doubling branch's vertical tangent
        assert ec_neg(T) == T and ec_add(T, T).infinity
        assert _pair(ec_add(T, P)) == _reference_add(E, _pair(T), _pair(P))


_rationals = st.fractions(-6, 6, max_denominator=5)
_nonzero_rationals = _rationals.filter(bool)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rational_group_law_matches_the_operator_formulas(data):
    # every a_i nonzero, unlike the fixtures (a1 = a2 = 0): a2 and a6 are
    # picked so that a drawn point P and a drawn 2-torsion point T fit
    a1, a3, a4 = (data.draw(_nonzero_rationals) for _ in range(3))
    x0, y0, t = data.draw(_rationals), data.draw(_rationals), data.draw(_rationals)
    assume(x0 * x0 != t * t)
    s = -(a1 * t + a3) / 2  # 2T = 0 iff 2y + a1 x + a3 = 0

    def rest(x, y):  # a2 x^2 + a6 on the curve
        return y * y + a1 * x * y + a3 * y - x * x * x - a4 * x

    a2 = (rest(x0, y0) - rest(t, s)) / (x0 * x0 - t * t)
    assume(a2 != 0)
    try:
        E = EllipticCurve.from_coeffs(RationalField(), a1, a2, a3, a4, rest(x0, y0) - a2 * x0 * x0)
    except CurveError:
        assume(False)
    P, T = CurvePoint.affine(E, x0, y0), CurvePoint.affine(E, t, s)
    multiples = [P]
    for _ in range(3):
        multiples.append(ec_add(multiples[-1], P))
    torsion = full_two_torsion(E)
    assert T in torsion
    # chords, doublings, P = -Q and the vertical tangents at the 2-torsion
    cases = list(itertools.combinations_with_replacement(multiples, 2))
    cases += [(P, ec_neg(P))] + [(T2, X) for T2 in torsion for X in (T2, P)]
    for X, Y in cases:
        S = ec_add(X, Y)
        assert _pair(S) == rational_add(E, _pair(X), _pair(Y))
        assert S.infinity or type(S.x) is type(S.y) is Fraction
