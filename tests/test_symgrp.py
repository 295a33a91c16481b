"""Group algebra, Young symmetrizers, tabloids, and the signed group."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmotive.symgrp import (
    GroupAlgebraElement,
    GroupAlgebraError,
    Permutation,
    YoungShape,
    alt_signed_group,
    hook_length_dimension,
    partitions,
    right_act,
    right_act_element,
    sign_convention_table,
    signed_permutation,
    standard_tableaux,
    tabloid_row_projector,
    transpose_projector,
    young_symmetrizer,
)


def perm(*images):
    return Permutation(tuple(images))


def unit(b):
    return GroupAlgebraElement.unit(b)


def elem(b, *items):
    return GroupAlgebraElement.of(b, [(p, c) for p, c in items])


def test_composition_right_to_left():
    # (12) * (13) applies (13) first: expect the 3-cycle sending 1->3->2->1
    s12 = Permutation.transposition(3, 1, 2)
    s13 = Permutation.transposition(3, 1, 3)
    prod = s12 * s13
    assert prod(1) == 3 and prod(3) == 2 and prod(2) == 1


def test_annihilating_pair():
    s = Permutation.transposition(2, 1, 2)
    a = elem(2, (Permutation.identity(2), 1), (s, 1))
    b = elem(2, (Permutation.identity(2), 1), (s, -1))
    assert (a * b).is_zero()


def test_unit_multiplication():
    x = elem(3, (perm(2, 3, 1), 3), (perm(1, 3, 2), -2))
    assert unit(3) * x == x
    assert x * unit(3) == x


def test_degree_mismatch():
    with pytest.raises(GroupAlgebraError):
        unit(2) * unit(3)


@given(st.integers(2, 5), st.randoms())
@settings(max_examples=25, deadline=None)
def test_associativity_random(b, rng):
    def rand_elem():
        items = []
        for _ in range(3):
            images = list(range(1, b + 1))
            rng.shuffle(images)
            items.append((Permutation(tuple(images)), rng.randint(-3, 3)))
        return GroupAlgebraElement.of(b, items)

    x, y, z = rand_elem(), rand_elem(), rand_elem()
    assert (x * y) * z == x * (y * z)
    # the product composes images by index: Permutation.__mul__ is the reference
    products = [(p * q, c * d) for p, c in x.terms for q, d in y.terms]
    assert x * y == GroupAlgebraElement.of(b, products)


def test_associativity_exhaustive_b3():
    import itertools

    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    singles = [GroupAlgebraElement.of(3, [(p, 1)]) for p in perms]
    for x in singles:
        for y in singles:
            for z in singles:
                assert (x * y) * z == x * (y * z)


def test_young_symmetrizer_examples():
    row2 = young_symmetrizer(YoungShape.standard((2,)))
    assert row2 == elem(2, (Permutation.identity(2), 1), (Permutation.transposition(2, 1, 2), 1))
    col2 = young_symmetrizer(YoungShape.standard((1, 1)))
    assert col2 == elem(2, (Permutation.identity(2), 1), (Permutation.transposition(2, 1, 2), -1))
    hook = young_symmetrizer(YoungShape.standard((2, 1)))
    # (e + (12)) (e - (13)) = e + (12) - (13) - (12)(13)
    expected = elem(
        3,
        (Permutation.identity(3), 1),
        (Permutation.transposition(3, 1, 2), 1),
        (Permutation.transposition(3, 1, 3), -1),
        (Permutation.transposition(3, 1, 2) * Permutation.transposition(3, 1, 3), -1),
    )
    assert hook == expected


def test_tabloid_projectors():
    assert len(tabloid_row_projector(YoungShape.standard((2,), "tabloid"))) == 2
    rho = tabloid_row_projector(YoungShape.standard((3, 1), "tabloid"))
    assert len(rho) == factorial(3) * factorial(1)
    ones = tabloid_row_projector(YoungShape.standard((1, 1, 1), "tabloid"))
    assert ones == unit(3)
    with pytest.raises(GroupAlgebraError):
        tabloid_row_projector(YoungShape.standard((2, 1)))
    with pytest.raises(GroupAlgebraError):
        young_symmetrizer(YoungShape.standard((2, 1), "tabloid"))


def test_transpose_projector():
    # row tableau [1,2] flips to the column, giving the antisymmetrizer
    t = transpose_projector(YoungShape.standard((2,)))
    assert t == elem(2, (Permutation.identity(2), 1), (Permutation.transposition(2, 1, 2), -1))
    # tabloid (n+1, 1) flips to the two-cell row tabloid e + (1, n+2)
    rho_t = transpose_projector(YoungShape.standard((2, 1), "tabloid"))
    assert rho_t == elem(3, (Permutation.identity(3), 1), (Permutation.transposition(3, 1, 3), 1))
    # double transpose returns the original element, all shapes b <= 5
    for b in range(1, 6):
        for rows in partitions(b):
            for mode in ("tableau", "tabloid"):
                shape = YoungShape.standard(rows, mode)
                once = shape.transpose()
                assert once.transpose() == shape
                p = (
                    young_symmetrizer(shape)
                    if mode == "tableau"
                    else tabloid_row_projector(shape)
                )
                back = (
                    young_symmetrizer(once.transpose())
                    if mode == "tableau"
                    else tabloid_row_projector(once.transpose())
                )
                assert back == p


def _coeff_types(element):
    return {type(c) for c in element.values()}


def test_quasi_idempotency_small():
    for b in range(1, 5):
        for rows in partitions(b):
            lam = factorial(b) // hook_length_dimension(rows)
            for shape in standard_tableaux(rows):
                e = young_symmetrizer(shape)
                square = e * e
                assert square == e.scale(lam)
                # nothing divides a symmetrizer: its coefficients and those of
                # its square are plain ints, never Fractions
                assert _coeff_types(e) == _coeff_types(square) == {int}
                # the product builds its permutations unchecked; they are genuine
                assert all(Permutation(p.images) == p for p in square)


def test_group_algebras_keep_int_coefficients():
    for c in (1, 2, 3):
        alt = alt_signed_group(c)
        assert _coeff_types(alt) == _coeff_types(alt * alt) == {int}
    x = elem(2, (perm(2, 1), 2))
    assert type(x.coeff(perm(1, 2))) is int and _coeff_types(x - x.scale(3)) == {int}
    # a rational scale is kept exactly
    assert x.scale(Fraction(1, 2)) == elem(2, (perm(2, 1), 1))


def test_group_algebra_copy_and_pickle():
    e = young_symmetrizer(YoungShape.standard((2, 1)))
    e.terms  # fill the sorted view first
    for dup in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert dup == e and hash(dup) == hash(e) and dup.degree == e.degree
        assert repr(dup) == repr(e)
        assert _coeff_types(dup) == {int}


def test_hook_length_dimensions():
    assert hook_length_dimension((2, 1)) == 2
    assert hook_length_dimension((3, 2)) == 5
    assert hook_length_dimension((5,)) == 1
    assert hook_length_dimension((1, 1, 1, 1)) == 1
    assert sum(hook_length_dimension(r) ** 2 for r in partitions(5)) == factorial(5)


def test_right_action_is_action():
    rng = random.Random(3)
    for _ in range(10):
        b = rng.randint(2, 4)
        v = GroupAlgebraElement.of(
            b, [(Permutation(tuple(rng.sample(range(1, b + 1), b))), rng.randint(1, 3))]
        )
        shape = YoungShape.standard((b - 1, 1) if b > 1 else (1,))
        p = young_symmetrizer(shape)
        assert right_act_element(right_act_element(v, p), p) == right_act_element(v, p * p)


def test_sign_convention_table():
    # right_act signs by the sign character; the table shows both readings
    tau = Permutation.transposition(3, 1, 2)
    assert right_act(unit(3), tau) == GroupAlgebraElement.of(3, [(tau.inverse(), -1)])
    rows = sign_convention_table()
    samples = [
        Permutation.identity(4),
        Permutation.transposition(4, 1, 2),
        Permutation.from_cycle(4, (1, 2, 3)),
        Permutation.from_cycle(4, (1, 2, 3, 4)),
    ]
    assert (rows[0]["parity"], rows[0]["parity-plus-one"]) == (1, -1)
    assert all(row["parity-plus-one"] == -row["parity"] for row in rows)
    assert [row["parity"] for row in rows] == [sigma.sign() for sigma in samples]


def test_alt_signed_group():
    assert len(alt_signed_group(1)) == 2
    assert len(alt_signed_group(2)) == 8 and alt_signed_group(2).degree == 4
    for c in (1, 2, 3):
        alt = alt_signed_group(c)
        lam = (2**c) * factorial(c)
        assert alt * alt == alt.scale(lam)


def _semidirect_mul(g, h):
    """The reference law of G_c on (signs, permutation) pairs:
    (s, sigma)(t, tau) = (s * sigma(t), sigma tau), sigma(t)_i = t_{sigma^-1(i)}."""
    (s, sigma), (t, tau) = g, h
    inv = sigma.inverse()
    moved = tuple(t[inv(i) - 1] for i in range(1, sigma.degree + 1))
    return tuple(a * b for a, b in zip(s, moved)), sigma * tau


def _signed_group(c):
    return [
        (signs, Permutation(images))
        for images in itertools.permutations(range(1, c + 1))
        for signs in itertools.product((1, -1), repeat=c)
    ]


def test_signed_permutation_embeds_the_semidirect_law():
    # all pairs of G_2 and a sample of pairs of G_3
    g2 = _signed_group(2)
    g3 = _signed_group(3)
    rng = random.Random(21)
    pairs = [(g, h) for g in g2 for h in g2]
    pairs += [(rng.choice(g3), rng.choice(g3)) for _ in range(200)]
    for g, h in pairs:
        product = signed_permutation(*_semidirect_mul(g, h))
        assert product == signed_permutation(*g) * signed_permutation(*h), (g, h)
    # injective, and every image commutes with negation i <-> i + c
    for c, group in ((2, g2), (3, g3)):
        images = {signed_permutation(*g) for g in group}
        assert len(images) == len(group)
        neg = Permutation(tuple(range(c + 1, 2 * c + 1)) + tuple(range(1, c + 1)))
        assert all(p * neg == neg * p for p in images)
    # (-, +; id) flips e_1 only; ((1 2)) swaps the two pairs
    assert signed_permutation((-1, 1), Permutation.identity(2)).images == (3, 2, 1, 4)
    assert signed_permutation((1, 1), Permutation((2, 1))).images == (2, 1, 4, 3)


def test_bad_shapes():
    with pytest.raises(GroupAlgebraError):
        YoungShape((1, 2), ((1,), (2, 3)), "tableau")
    with pytest.raises(GroupAlgebraError):
        YoungShape((2, 1), ((1, 2), (2,)), "tableau")
    with pytest.raises(GroupAlgebraError):
        YoungShape.standard((2, 1), "diagram")
