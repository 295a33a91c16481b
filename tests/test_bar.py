"""Bar words, chains, cocycles, comultiplication, the nontriviality witness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmotive.barcx import (
    BarChain,
    BarWord,
    _Echelon,
    _solve_exact,
    build_motive_chain,
    bar_differential,
    comodule_span,
    comultiply,
    comultiply_grouped,
    comultiply_report,
    final_layer_points,
    grading_coherent,
    is_point_word,
    nontriviality_witness,
    verify_coassociativity,
    verify_cocycle,
)
from ellmotive.cycles import build_family, decorate
from ellmotive.fixtures import fixed_points, generator, standard_functions


@pytest.fixture(scope="module")
def chains():
    curve, gs = standard_functions(2)
    mc1 = build_motive_chain(curve, gs[:1])
    mc2 = build_motive_chain(curve, gs)
    return curve, gs, mc1, mc2


def test_single_point_word_closed(chains):
    curve, _, _, _ = chains
    w = BarChain.from_cycle_sums([decorate("eta_point", generator(curve))])
    assert bar_differential(w).is_zero()


def test_dd_zero_on_words(chains):
    curve, gs, _, _ = chains
    afix = fixed_points(2)
    eta = decorate("eta", build_family("X", curve, 1, gs[:1]), n=1)
    mu = decorate("mu", build_family("Y", curve, 1, gs[1:2], fixed=(afix[0],)), n=1)
    pt = decorate("eta_point", generator(curve))
    for sums in ([eta], [eta, pt], [pt, eta], [mu, pt, eta], [pt, pt, pt]):
        w = BarChain.from_cycle_sums(sums)
        assert bar_differential(bar_differential(w)).is_zero()


def test_single_slot_differential_is_boundary(chains):
    # D of [Y] equals the internal boundary as a length-1 chain: the mu display
    curve, gs, _, _ = chains
    afix = fixed_points(2)
    Y = decorate("mu", build_family("Y", curve, 1, gs[:1], fixed=(afix[0],)), n=1)
    d = bar_differential(BarChain.from_cycle_sums([Y]))
    assert d.lengths() == [1]
    from ellmotive.cycles import boundary

    expected = BarChain.from_cycle_sums([boundary(Y)])
    assert (d + expected).is_zero() or (d - expected).is_zero()


def test_chain_n1_structure(chains):
    _, _, mc1, _ = chains
    assert verify_cocycle(mc1.chain)[0]
    assert mc1.chain.lengths() == [1, 2, 3]  # layers n+2 = 3 deep
    final = final_layer_points(mc1.chain)
    assert final and all(len(pts) == 3 for _, pts in final)


def test_chain_n2_structure(chains):
    _, _, _, mc2 = chains
    assert verify_cocycle(mc2.chain)[0]
    assert mc2.chain.lengths() == [1, 2, 3, 4]
    top = max(w.length for w, _ in mc2.chain.terms)
    assert all(
        is_point_word(w) for w, _ in mc2.chain.terms if w.length == top
    )


def test_chain_n0_pairing_structure(chains):
    # the Q(-1) chain over two fixed points: its second layer is the
    # displayed pairing eta(a_i) (x) eta(-a_i - sum a_j)
    curve, _, _, _ = chains
    mc = build_motive_chain(curve, [], fixed=tuple(fixed_points(2)))
    assert verify_cocycle(mc.chain)[0]
    assert mc.chain.lengths() == [1, 2]
    pair_words = [w for w, _ in mc.chain.terms if w.length == 2]
    assert pair_words and all(is_point_word(w) for w in pair_words)


def test_leading_term_alone_is_not_cocycle(chains):
    _, _, mc1, mc2 = chains
    for mc in (mc1, mc2):
        top = BarChain.of([(w, c) for w, c in mc.chain.terms if w.length == 1])
        ok, diff = verify_cocycle(top)
        assert not ok and not diff.is_zero()


def test_empty_chain_is_cocycle():
    ok, _ = verify_cocycle(BarChain.of([]))
    assert ok


def test_kill_certificates(chains):
    _, _, mc1, mc2 = chains
    assert mc1.kills == []  # no mu/nu words at n = 1
    assert mc2.kills and all(k.exact for k in mc2.kills)


def test_comultiply_grouped_structure(chains):
    _, _, mc1, mc2 = chains
    for mc in (mc1, mc2):
        rep = comultiply_report(mc)
        assert rep.counital
        assert rep.coassociative
        assert rep.leading_ok and rep.trailing_ok
        assert rep.middle and all(c and m for _, c, m in rep.middle)


def test_counit_and_coassoc_plain(chains):
    _, _, mc1, _ = chains
    assert comultiply_report(mc1).counital
    assert verify_coassociativity(mc1.chain)


def test_comodule_span(chains):
    _, _, mc1, mc2 = chains
    rep1 = comodule_span(mc1)
    assert rep1.closed
    # layers n+2 = 3 deep plus the unit
    assert rep1.members[0][0] == "1"
    depths = {
        max(w.length for w, _ in ch.terms) for lbl, ch in rep1.members if lbl != "1"
    }
    assert max(depths) == 3
    rep2 = comodule_span(mc2)
    assert rep2.closed


def test_point_class_span():
    # span of a single point class: {[p], 1}
    curve, _ = standard_functions(1)
    P = generator(curve)
    chain = BarChain.from_cycle_sums([decorate("eta_point", P)])
    groups = comultiply_grouped(chain)
    unit = BarWord((), ())
    assert groups[unit] == chain
    lefts = {l for _, l, r in comultiply(chain) if r.length == 0}
    assert all(w.length <= 1 for w in lefts)


def test_grading_coherence(chains):
    _, _, mc1, mc2 = chains
    assert grading_coherent(mc1)
    assert grading_coherent(mc2)


def test_nontriviality_witness(chains):
    _, _, mc1, mc2 = chains
    for mc in (mc1, mc2):
        cert = nontriviality_witness(mc.chain)
        assert cert.nontrivial
        assert cert.point is not None and not cert.double.infinity


def test_degenerate_witness_two_torsion():
    # with all support points 2-torsion the point classes vanish and the
    # witness degenerates
    from ellmotive.curves import full_two_torsion
    from ellmotive.cycles import ParamCycle, PointExpr
    from ellmotive.fixtures import two_torsion_curve_f11

    E11 = two_torsion_curve_f11()
    u = full_two_torsion(E11)[0]
    cyc = decorate("eta_point", u)
    assert cyc.is_zero()
    chain = BarChain.from_cycle_sums([cyc]) if not cyc.is_zero() else BarChain.of([])
    cert = nontriviality_witness(chain)
    assert not cert.nontrivial


# ---------------------------------------------------------------------------
# the exact sparse eliminator behind the contraction solve and the span check


def _rank(vectors):
    """Dense Fraction rank, independent of the eliminator under test."""
    keys = sorted({k for v in vectors for k in v})
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
    rank = 0
    for c in range(len(keys)):
        sel = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _apply(columns, x):
    out = {}
    for xj, col in zip(x, columns):
        for k, v in col.items():
            out[k] = out.get(k, 0) + xj * v
    return {k: v for k, v in out.items() if v != 0}


_coeff = st.integers(-3, 3).filter(bool).map(Fraction)
_sparse_vec = st.dictionaries(st.integers(0, 7), _coeff, max_size=4)


@st.composite
def _systems(draw):
    """Random sparse columns, some of them combinations of earlier ones."""
    columns = []
    for _ in range(draw(st.integers(0, 7))):
        if columns and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=3))
            columns.append(_apply([columns[j] for j in picks], [draw(_coeff) for _ in picks]))
        else:
            columns.append(draw(_sparse_vec))
    x0 = [draw(st.integers(-2, 2)) for _ in columns]
    return columns, x0


@given(_systems())
@settings(max_examples=200, deadline=None)
def test_solve_exact_solves_consistent_systems(system):
    columns, x0 = system
    rhs = _apply(columns, x0)
    x = _solve_exact(columns, rhs)
    assert x is not None and _apply(columns, x) == rhs
    # the key order is first appearance: reversing every column's insertion
    # order must not move the solution
    flipped = [dict(reversed(list(col.items()))) for col in columns]
    assert _solve_exact(flipped, dict(reversed(list(rhs.items())))) == x


@given(_systems())
@settings(max_examples=200, deadline=None)
def test_solve_exact_zero_on_dependent_columns(system):
    columns, x0 = system
    x = _solve_exact(columns, _apply(columns, x0))
    for j, col in enumerate(columns):
        if _rank(columns[: j + 1]) == _rank(columns[:j]):
            assert x[j] == 0, j


@given(_systems(), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_solve_exact_rejects_rhs_outside_span(system, key):
    columns, x0 = system
    # key 8 occurs in no column; other keys may already lie in the span
    if _rank(columns + [{key: 1}]) == _rank(columns):
        key = 8
    rhs = _apply(columns, x0)
    rhs[key] = rhs.get(key, 0) + 1
    assert _solve_exact(columns, {k: v for k, v in rhs.items() if v != 0}) is None


@given(_systems(), _sparse_vec)
@settings(max_examples=200, deadline=None)
def test_echelon_contains_agrees_with_solve(system, vec):
    columns, _ = system
    ech = _Echelon()
    for j, col in enumerate(columns):
        ech.add(col, j)
    assert ech.contains(vec) == (_solve_exact(columns, vec) is not None)
    assert ech.contains(vec) == (_rank(columns + [vec]) == _rank(columns))
