"""The GL2 motive label algebra against the character oracle of `reference`."""

import pytest

from ellmotive.gl2 import H1, QQ, MotiveError, MotiveSum, PureMotive, clebsch_gordan, tensor_supports
from reference import (
    TATE,
    clebsch_gordan_by_characters,
    dimension,
    effective,
    plethysm2,
    plethysm2_by_characters,
    total_dimension,
    weight,
)


def test_basic_labels():
    assert weight(TATE) == 2 and dimension(TATE) == 1
    assert weight(H1) == 1 and dimension(H1) == 2
    assert weight(PureMotive(2, 1)) == 4
    assert effective(PureMotive(3, 0))
    assert not effective(PureMotive(0, -1))
    assert PureMotive(2, 1).render() == "Sym^2 h1(E)(-1)"
    assert TATE.render() == "Q(-1)"
    with pytest.raises(MotiveError):
        PureMotive(-1, 0)


def test_clebsch_gordan_examples():
    # h1 (x) h1 = Sym^2 + Q(-1): the Tate class is wedge^2 h^1(E)
    out = clebsch_gordan(H1, H1)
    assert out.terms == ((TATE, 1), (PureMotive(2, 0), 1))
    assert total_dimension(out) == 4
    # Sym^0 is the unit
    X = PureMotive(3, 2)
    assert clebsch_gordan(QQ, X).terms == ((X, 1),)
    # Sym^2 (x) Sym^2 = Sym^4 + Sym^2(-1) + Q(-2), dimensions 9 = 5 + 3 + 1
    out = clebsch_gordan(PureMotive(2), PureMotive(2))
    assert out.terms == ((PureMotive(0, 2), 1), (PureMotive(2, 1), 1), (PureMotive(4, 0), 1))


def test_plethysm_examples():
    assert plethysm2("wedge", H1).terms == ((TATE, 1),)
    assert plethysm2("sym", H1).terms == ((PureMotive(2, 0), 1),)
    out = plethysm2("sym", PureMotive(2))
    assert out.terms == ((PureMotive(0, 2), 1), (PureMotive(4, 0), 1))
    out = plethysm2("wedge", PureMotive(2))
    assert out.terms == ((PureMotive(2, 1), 1),)
    with pytest.raises(MotiveError):
        plethysm2("cube", H1)


def test_character_oracle_agreement():
    for a in range(0, 9):
        for b in range(0, 9):
            V, W = PureMotive(a), PureMotive(b)
            assert clebsch_gordan(V, W).terms == clebsch_gordan_by_characters(V, W).terms
    for n in range(0, 9):
        V = PureMotive(n)
        for kind in ("sym", "wedge"):
            assert plethysm2(kind, V).terms == plethysm2_by_characters(kind, V).terms
    # twisted inputs too
    V, W = PureMotive(2, 1), PureMotive(3, 2)
    assert clebsch_gordan(V, W).terms == clebsch_gordan_by_characters(V, W).terms


def test_dimension_conservation():
    for a in range(0, 9):
        for b in range(0, 9):
            out = clebsch_gordan(PureMotive(a), PureMotive(b))
            assert total_dimension(out) == (a + 1) * (b + 1)


def test_weight_conservation():
    for a in range(0, 7):
        for b in range(0, 7):
            V, W = PureMotive(a, 1), PureMotive(b, 2)
            for mot, _ in clebsch_gordan(V, W).terms:
                assert weight(mot) == weight(V) + weight(W)
    for n in range(0, 7):
        V = PureMotive(n, 1)
        for kind in ("sym", "wedge"):
            for mot, _ in plethysm2(kind, V).terms:
                assert weight(mot) == 2 * weight(V)


def test_plethysm_dimension_split():
    for n in range(0, 9):
        V = PureMotive(n)
        total = total_dimension(plethysm2("sym", V)) + total_dimension(plethysm2("wedge", V))
        assert total == (n + 1) ** 2


def test_motive_sum_arithmetic():
    s = MotiveSum([(H1, 1), (TATE, 2)])
    assert s.coeff(TATE) == 2
    assert (s + s).coeff(H1) == 2
    with pytest.raises(MotiveError):
        MotiveSum([(H1, -1)])


def test_tensor_supports():
    # h1 (x) h1 holds Q(-1) and Sym^2, not h1; no labels is the unit Q
    assert tensor_supports((H1, H1), TATE)
    assert tensor_supports((H1, H1), PureMotive(2, 0))
    assert not tensor_supports((H1, H1), H1)
    assert tensor_supports((), QQ) and not tensor_supports((), H1)
    # the labels of a length-3 layer word of the n = 2 chain reach its
    # leading label Sym^2 h1(E)(-1), and no other twist of Sym^2
    word = (PureMotive(2, 0), H1, H1)
    assert tensor_supports(word, PureMotive(2, 1))
    assert not tensor_supports(word, PureMotive(2, 2))


def test_labels_sort_by_power_then_twist():
    labels = [PureMotive(n, m) for n in (2, 0, 1) for m in (1, 0, 2)]
    ordered = sorted(labels)
    assert [(V.n, V.m) for V in ordered] == sorted((V.n, V.m) for V in labels)
    assert min(labels) == QQ and max(labels) == PureMotive(2, 2)
    assert repr(MotiveSum([(V, 1) for V in labels])).startswith("Q + Q(-1) + Q(-2) + h1(E)")
    with pytest.raises(TypeError):
        sorted([H1, (1, 0)])
