"""Exact field arithmetic and the elliptic-curve group law."""

import copy
import dataclasses
import pickle
import random

import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellmotive.curves import (
    CurveError,
    _rational_cubic_roots,
    CurvePoint,
    EllipticCurve,
    ec_add,
    ec_neg,
    ec_scalar_mul,
    enumerate_points,
    full_two_torsion,
    is_two_torsion,
)
from ellmotive.cycles import FbarSpec, FunCoord, ParamCycle, PointExpr
from ellmotive.fields import FieldError, PrimeField, RationalField, field_from_tag
from ellmotive.fixtures import generator, rank_one_curve, two_torsion_curve_f11
from ellmotive.symgrp import Permutation
from reference import permute_ecoords, rename_params


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
    sigma = Permutation(tuple(data.draw(st.permutations((1, 2, 3)))))
    moved = permute_ecoords(permute_ecoords(cycle, sigma), sigma.inverse())
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


def test_value_objects_stay_frozen():
    E = two_torsion_curve_f11()
    P = full_two_torsion(E)[0]
    hash(P)  # the lazily filled slots stay read-only too
    s = PointExpr.param(E, "s")
    cycle = ParamCycle(E, ("s",), (s,), ())
    hash(cycle)
    for obj, name in ((E, "a1"), (E, "_hash"), (P, "x"), (P, "_key"), (s, "const"), (cycle, "_hash")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def test_value_objects_copy_and_pickle():
    # before and after the lazy caches are filled
    E = two_torsion_curve_f11()
    P = CurvePoint.affine(E, 2, 0)
    cycle = ParamCycle(E, ("s",), (PointExpr.param(E, "s") - PointExpr.constant(P),), ())
    for _ in range(2):
        for obj in (E, P, cycle):
            dups = (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)))
            assert all(dup == obj and hash(dup) == hash(obj) for dup in dups)


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
