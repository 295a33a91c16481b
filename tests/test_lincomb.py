"""The shared exact sparse combination type and its order-only `terms` view."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmotive.barcx import _solve_exact, build_motive_chain
from ellmotive.divisors import DivisorError, ProductDivisorClass
from ellmotive.fixtures import rank_one_curve, standard_functions
from ellmotive.formulas import _match_groups
from ellmotive.lincomb import LinComb
from ellmotive.symgrp import GroupAlgebraElement, GroupAlgebraError
from reference import class_coeff


class Descending(LinComb):
    """A subtype whose key reverses the natural order of its bases."""

    __slots__ = ()

    @staticmethod
    def sort_key(basis):
        return -basis


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_items = st.lists(st.tuples(st.integers(0, 12), _coeffs), max_size=25)


def _reference(items):
    acc = {}
    for b, c in items:
        acc[b] = acc.get(b, 0) + c
    return {b: c for b, c in acc.items() if c}


@given(_items, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_insertion_order_is_not_observable(items, rng):
    shuffled = list(items)
    rng.shuffle(shuffled)
    a, b = LinComb(items), LinComb(shuffled)
    assert a == b and hash(a) == hash(b)
    assert dict(a) == _reference(items)
    assert all(c != 0 for c in a.values())
    assert [k for k, _ in a.terms] == sorted(a) == [k for k, _ in b.terms]
    assert [k for k, _ in Descending(shuffled).terms] == sorted(a, reverse=True)


@given(_items, _items, _coeffs)
@settings(max_examples=200, deadline=None)
def test_arithmetic_laws(xs, ys, k):
    a, b = LinComb(xs), LinComb(ys)
    assert (a + b) - b == a
    assert (a - a).is_zero() and len(a - a) == 0
    assert a.scale(0).is_zero() and a.scale(0) == LinComb()
    assert (a + b).scale(k) == a.scale(k) + b.scale(k)
    assert -a == a.scale(-1)
    assert all(c != 0 for c in (a + b).values())
    assert all(c != 0 for c in a.scale(k).values())


def test_coefficients_keep_their_exact_type():
    # ints stay ints and Fractions stay Fractions; only a division makes a
    # Fraction, and it builds the exact quotient
    a = LinComb([("x", 1), ("y", 2)])
    for c in (a["x"], a.coeff("z"), (a + a)["y"], (a - a.scale(3))["x"], a.scale(2)["y"]):
        assert type(c) is int
    f = LinComb([("x", Fraction(1, 2))])
    for c in ((f + f)["x"], (f - f.scale(3))["x"], f.scale(2)["x"], (a + f)["x"]):
        assert type(c) is Fraction
    rep = _match_groups(LinComb([("x", 1)]), [("g", "half", LinComb([("x", 2)]))])
    (scalar,) = [inst.scalar for inst in rep.instances if inst.group == "g"]
    assert rep.complete and type(scalar) is Fraction and scalar == Fraction(1, 2)
    (x,) = _solve_exact([{"e": 2}], {"e": 1})
    assert type(x) is Fraction and x == Fraction(1, 2)
    mc = build_motive_chain(*standard_functions(2))
    coeffs = [*mc.chain.values(), *(c for c, _ in mc.layers)]
    assert {type(c) for c in coeffs} <= {int, Fraction}


def test_mapping_interface_and_labels():
    a = LinComb([("x", 2), ("y", Fraction(1, 3)), ("x", -2)])
    assert "x" not in a and a.coeff("x") == 0 and a["y"] == Fraction(1, 3)
    assert isinstance(a["y"], Fraction) and len(a) == 1 and list(a) == ["y"]
    with pytest.raises(KeyError):
        a["x"]
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == "1/3*'y'" and repr(LinComb()) == "0"
    # labels ride along with arithmetic and must agree between operands
    curve = rank_one_curve()
    d2 = ProductDivisorClass.of(curve, 2, [(("Delta", 2, 1), 1)])
    assert class_coeff(d2, ("Delta", 1, 2)) == 1
    assert (d2 + d2).n == 2 and (d2 - d2).curve == curve
    with pytest.raises(DivisorError):
        d2 + ProductDivisorClass.of(curve, 3, [])
    with pytest.raises(GroupAlgebraError):
        GroupAlgebraElement.unit(2) + GroupAlgebraElement.unit(3)
    # equal combinations have equal labels, zero ones included
    assert GroupAlgebraElement.of(2, []) != GroupAlgebraElement.of(3, [])
    assert d2 - d2 != ProductDivisorClass.of(curve, 3, [])
    with pytest.raises(TypeError):
        a + d2


def test_terms_is_computed_once_and_pickles():
    rng = random.Random(3)
    items = [(rng.randrange(50), rng.randint(-3, 3)) for _ in range(60)]
    a = LinComb(items)
    assert a.terms is a.terms
    curve = rank_one_curve()
    d = ProductDivisorClass.of(curve, 2, [(("Psi", 1, 2), 3)])
    for obj in (a, d):
        dup = pickle.loads(pickle.dumps(obj))
        assert dup == obj and dup.terms == obj.terms
    assert dup.n == 2 and dup.curve == curve
