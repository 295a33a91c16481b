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
    _inverse,
    _sign,
    alt_signed_group,
    hook_length_dimension,
    partitions,
    right_act,
    row_sum,
    sign_convention_table,
    signed_permutation,
    standard_shape,
    standard_tableaux,
    transpose,
    young_symmetrizer,
)
from reference import compose, from_cycle, identity, transposition


def unit(b):
    return GroupAlgebraElement.unit(b)


def elem(b, *items):
    return GroupAlgebraElement.of(b, [(p, c) for p, c in items])


def test_composition_right_to_left():
    # (12) * (13) applies (13) first: expect the 3-cycle sending 1->3->2->1
    s12 = transposition(3, 1, 2)
    s13 = transposition(3, 1, 3)
    assert compose(s12, s13) == (3, 1, 2)
    assert elem(3, (s12, 1)) * elem(3, (s13, 1)) == elem(3, ((3, 1, 2), 1))


def test_annihilating_pair():
    s = transposition(2, 1, 2)
    a = elem(2, (identity(2), 1), (s, 1))
    b = elem(2, (identity(2), 1), (s, -1))
    assert (a * b).is_zero()


def test_unit_multiplication():
    x = elem(3, ((2, 3, 1), 3), ((1, 3, 2), -2))
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
            items.append((tuple(images), rng.randint(-3, 3)))
        return GroupAlgebraElement.of(b, items)

    x, y, z = rand_elem(), rand_elem(), rand_elem()
    assert (x * y) * z == x * (y * z)
    # the product composes images by index: reference.compose is the reference
    products = [(compose(p, q), c * d) for p, c in x.terms for q, d in y.terms]
    assert x * y == GroupAlgebraElement.of(b, products)


def test_low_degree_products():
    # below degree 2 the one permutation is the identity, and its images are
    # a tuple (not the scalar a one-index itemgetter would give)
    for b in (0, 1):
        x = GroupAlgebraElement.of(b, [(identity(b), 3)])
        assert x * x == x.scale(3)
        assert list(x * x) == [tuple(range(1, b + 1))]


def test_associativity_exhaustive_b3():
    perms = list(itertools.permutations((1, 2, 3)))
    singles = [GroupAlgebraElement.of(3, [(p, 1)]) for p in perms]
    for x in singles:
        for y in singles:
            for z in singles:
                assert (x * y) * z == x * (y * z)


def test_young_symmetrizer_examples():
    row2 = young_symmetrizer(standard_shape((2,)))
    assert row2 == elem(2, (identity(2), 1), (transposition(2, 1, 2), 1))
    col2 = young_symmetrizer(standard_shape((1, 1)))
    assert col2 == elem(2, (identity(2), 1), (transposition(2, 1, 2), -1))
    hook = young_symmetrizer(standard_shape((2, 1)))
    # (e + (12)) (e - (13)) = e + (12) - (13) - (12)(13)
    expected = elem(
        3,
        (identity(3), 1),
        (transposition(3, 1, 2), 1),
        (transposition(3, 1, 3), -1),
        (compose(transposition(3, 1, 2), transposition(3, 1, 3)), -1),
    )
    assert hook == expected


def test_tabloid_projectors():
    # a tabloid's projector is the row sum c_T
    assert len(row_sum(standard_shape((2,)))) == 2
    rho = row_sum(standard_shape((3, 1)))
    assert len(rho) == factorial(3) * factorial(1)
    ones = row_sum(standard_shape((1, 1, 1)))
    assert ones == unit(3)
    # one shape, read as a tabloid and as a tableau, gives two projectors
    hook = standard_shape((2, 1))
    assert row_sum(hook) != young_symmetrizer(hook)


def test_transpose_projector():
    # row tableau [1,2] flips to the column, giving the antisymmetrizer
    t = young_symmetrizer(transpose(standard_shape((2,))))
    assert t == elem(2, (identity(2), 1), (transposition(2, 1, 2), -1))
    # tabloid (n+1, 1) flips to the two-cell row tabloid e + (1, n+2)
    rho_t = row_sum(transpose(standard_shape((2, 1))))
    assert rho_t == elem(3, (identity(3), 1), (transposition(3, 1, 3), 1))
    # double transpose returns the original element, all shapes b <= 5
    for b in range(1, 6):
        for rows in partitions(b):
            shape = standard_shape(rows)
            once = transpose(shape)
            assert transpose(once) == shape
            for projector in (young_symmetrizer, row_sum):
                assert projector(transpose(once)) == projector(shape)


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
                assert all(sorted(p) == list(range(1, b + 1)) for p in square)


def test_group_algebras_keep_int_coefficients():
    for c in (1, 2, 3):
        alt = alt_signed_group(c)
        assert _coeff_types(alt) == _coeff_types(alt * alt) == {int}
    x = elem(2, ((2, 1), 2))
    assert type(x.coeff((1, 2))) is int and _coeff_types(x - x.scale(3)) == {int}
    # a rational scale is kept exactly
    assert x.scale(Fraction(1, 2)) == elem(2, ((2, 1), 1))


def test_group_algebra_copy_and_pickle():
    e = young_symmetrizer(standard_shape((2, 1)))
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
            b, [(tuple(rng.sample(range(1, b + 1), b)), rng.randint(1, 3))]
        )
        shape = standard_shape((b - 1, 1) if b > 1 else (1,))
        p = young_symmetrizer(shape)
        assert right_act(right_act(v, p), p) == right_act(v, p * p)


def test_sign_convention_table():
    # right_act signs by the sign character; the table shows both readings
    tau = transposition(3, 1, 2)
    acted = right_act(unit(3), GroupAlgebraElement.of(3, [(tau, 1)]))
    assert acted == GroupAlgebraElement.of(3, [(_inverse(tau), -1)])
    rho = from_cycle(3, (1, 2, 3))
    acted = right_act(unit(3), GroupAlgebraElement.of(3, [(rho, 1)]))
    assert acted == GroupAlgebraElement.of(3, [(from_cycle(3, (3, 2, 1)), 1)])
    rows = sign_convention_table()
    samples = [
        identity(4),
        transposition(4, 1, 2),
        from_cycle(4, (1, 2, 3)),
        from_cycle(4, (1, 2, 3, 4)),
    ]
    assert (rows[0]["parity"], rows[0]["parity-plus-one"]) == (1, -1)
    assert all(row["parity-plus-one"] == -row["parity"] for row in rows)
    assert [row["parity"] for row in rows] == [_sign(sigma) for sigma in samples]
    assert [row["transposition_count"] for row in rows] == [0, 1, 2, 3]


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
    moved = tuple(t[j - 1] for j in _inverse(sigma))
    return tuple(a * b for a, b in zip(s, moved)), compose(sigma, tau)


def _signed_group(c):
    return [
        (signs, images)
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
        assert product == compose(signed_permutation(*g), signed_permutation(*h)), (g, h)
    # injective, and every image commutes with negation i <-> i + c
    for c, group in ((2, g2), (3, g3)):
        images = {signed_permutation(*g) for g in group}
        assert len(images) == len(group)
        neg = tuple(range(c + 1, 2 * c + 1)) + tuple(range(1, c + 1))
        assert all(compose(p, neg) == compose(neg, p) for p in images)
    # (-, +; id) flips e_1 only; ((1 2)) swaps the two pairs
    assert signed_permutation((-1, 1), identity(2)) == (3, 2, 1, 4)
    assert signed_permutation((1, 1), (2, 1)) == (2, 1, 4, 3)


# ---------------------------------------------------------------------------
# the image-tuple helpers against reference.compose


def _permutations(b):
    return st.permutations(range(1, b + 1)).map(tuple)


@given(st.data(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_product_of_basis_elements_is_their_composition(data, b):
    sigma, tau = data.draw(_permutations(b)), data.draw(_permutations(b))
    product = elem(b, (sigma, 2)) * elem(b, (tau, -3))
    assert product == elem(b, (compose(sigma, tau), -6))


@given(st.data(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_sign_is_multiplicative_and_counts_inversions(data, b):
    sigma, tau = data.draw(_permutations(b)), data.draw(_permutations(b))
    assert _sign(compose(sigma, tau)) == _sign(sigma) * _sign(tau)
    inversions = sum(1 for i, j in itertools.combinations(range(b), 2) if sigma[i] > sigma[j])
    assert _sign(sigma) == (-1) ** inversions


@given(st.data(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_inverse_composes_to_the_identity(data, b):
    sigma = data.draw(_permutations(b))
    assert compose(sigma, _inverse(sigma)) == compose(_inverse(sigma), sigma) == identity(b)


def test_transpose_is_an_involution_on_standard_tableaux():
    # and a bijection onto the standard tableaux of the conjugate shape
    for b in range(1, 6):
        for rows in partitions(b):
            conjugate = tuple(sum(1 for r in rows if r > c) for c in range(rows[0]))
            tableaux = standard_tableaux(rows)
            assert all(transpose(transpose(s)) == s for s in tableaux)
            assert sorted(map(transpose, tableaux)) == sorted(standard_tableaux(conjugate))
