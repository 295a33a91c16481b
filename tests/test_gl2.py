"""The GL2 motive label algebra against the character oracle."""

import pytest

from ellmotive.gl2 import (
    H1,
    QQ,
    TATE,
    MotiveError,
    MotiveSum,
    PureMotive,
    clebsch_gordan,
    clebsch_gordan_by_characters,
    plethysm2,
    plethysm2_by_characters,
)


def test_basic_labels():
    assert TATE.weight == 2 and TATE.dimension == 1
    assert H1.weight == 1 and H1.dimension == 2
    assert PureMotive(2, 1).weight == 4
    assert PureMotive(3, 0).effective
    assert not PureMotive(0, -1).effective
    assert PureMotive(2, 1).render() == "Sym^2 h1(E)(-1)"
    assert TATE.render() == "Q(-1)"
    with pytest.raises(MotiveError):
        PureMotive(-1, 0)


def test_clebsch_gordan_examples():
    # h1 (x) h1 = Sym^2 + Q(-1): the Tate class is wedge^2 h^1(E)
    out = clebsch_gordan(H1, H1)
    assert out.contains(PureMotive(2, 0))
    assert out.contains(TATE)
    assert out.dimension == 4
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
            assert out.dimension == (a + 1) * (b + 1)


def test_weight_conservation():
    for a in range(0, 7):
        for b in range(0, 7):
            V, W = PureMotive(a, 1), PureMotive(b, 2)
            for mot, _ in clebsch_gordan(V, W).terms:
                assert mot.weight == V.weight + W.weight
    for n in range(0, 7):
        V = PureMotive(n, 1)
        for kind in ("sym", "wedge"):
            for mot, _ in plethysm2(kind, V).terms:
                assert mot.weight == 2 * V.weight


def test_plethysm_dimension_split():
    for n in range(0, 9):
        V = PureMotive(n)
        total = plethysm2("sym", V).dimension + plethysm2("wedge", V).dimension
        assert total == (n + 1) ** 2


def test_motive_sum_arithmetic():
    s = MotiveSum.of([(H1, 1), (TATE, 2)])
    assert s.coeff(TATE) == 2
    assert (s + s).coeff(H1) == 2
    with pytest.raises(MotiveError):
        MotiveSum.of([(H1, -1)])
