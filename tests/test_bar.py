"""Bar words, chains, cocycles, comultiplication, the nontriviality witness."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmotive.barcx import (
    BarChain,
    ChainConstructionError,
    _Echelon,
    _solve_exact,
    bar_differential,
    bar_faces,
    bar_products,
    build_motive_chain,
    comodule_span,
    comultiply,
    comultiply_grouped,
    comultiply_report,
    final_layer_points,
    grading_coherent,
    is_point_word,
    kill_certificates,
    nontriviality_witness,
    verify_coassociativity,
    verify_cocycle,
)
from ellmotive.config import default_config
from ellmotive import barcx, formulas
from ellmotive.curves import EllipticCurve, ec_add, ec_neg, ec_scalar_mul
from ellmotive.cycles import (
    CycleSum,
    SlotMemo,
    boundary,
    build_family,
    decorate,
    external_product,
)
from ellmotive.fields import PrimeField, RationalField
from ellmotive.fixtures import fixed_points, generator, standard_function, standard_functions
from ellmotive.formulas import FamilyContext, certifies
from ellmotive.suites import run_suite


@pytest.fixture(scope="module")
def chains():
    curve, gs = standard_functions(2)
    mc1 = build_motive_chain(curve, gs[:1])
    mc2 = build_motive_chain(curve, gs)
    return curve, gs, mc1, mc2


def test_single_point_word_closed(chains):
    curve, _, _, _ = chains
    w = BarChain.from_cycle_sums([decorate("eta_point", generator(curve))])
    assert bar_differential(w, SlotMemo()).is_zero()


def test_dd_zero_on_words(chains):
    curve, gs, _, _ = chains
    afix = fixed_points(2)
    eta = decorate("eta", build_family("X", curve, gs[:1]))
    mu = decorate("mu", build_family("Y", curve, gs[1:2], fixed=(afix[0],)))
    pt = decorate("eta_point", generator(curve))
    slots = SlotMemo()
    for sums in ([eta], [eta, pt], [pt, eta], [mu, pt, eta], [pt, pt, pt]):
        w = BarChain.from_cycle_sums(sums)
        assert bar_differential(bar_differential(w, slots), slots).is_zero()


def test_single_slot_differential_is_boundary(chains):
    # D of [Y] equals the internal boundary as a length-1 chain: the mu display
    curve, gs, _, _ = chains
    afix = fixed_points(2)
    Y = decorate("mu", build_family("Y", curve, gs[:1], fixed=(afix[0],)))
    d = bar_differential(BarChain.from_cycle_sums([Y]), SlotMemo())
    assert d.lengths() == [1]
    expected = BarChain.from_cycle_sums([boundary(Y)])
    assert (d + expected).is_zero() or (d - expected).is_zero()


def test_differential_is_faces_plus_products(chains):
    _, _, mc1, mc2 = chains
    for mc in (mc1, mc2):
        layer = mc.chain.component(2)
        slots = mc.context.slots
        faces, products = bar_faces(layer, slots), bar_products(layer, slots)
        assert faces.lengths() == [2] and products.lengths() == [1]
        assert faces + products == bar_differential(layer, slots)


def _reference_differential(chain):
    """D word by word with `boundary` and `external_product` and no memo:
    slot i signed by (-1)^(sum_{k<i} (c_k + 1))."""
    items = []
    for word, coeff in chain.items():
        for i, slot in enumerate(word):
            sign = (-1) ** sum(word[k].c + 1 for k in range(i))
            for face, fc in boundary(CycleSum([(slot, 1)])).items():
                items.append((word[:i] + (face,) + word[i + 1 :], coeff * sign * fc))
        for i in range(len(word) - 1):
            sign = (-1) ** sum(word[k].c + 1 for k in range(i + 1))
            pair = CycleSum([(word[i], 1)]), CycleSum([(word[i + 1], 1)])
            for prod, pc in external_product(*pair).items():
                items.append((word[:i] + (prod,) + word[i + 2 :], coeff * sign * pc))
    return BarChain(items)


def test_slot_memo_differential_matches_the_reference(chains):
    # D is linear in words, so checking each word alone covers every
    # sub-chain, including errors that cancel in a full layer's sum
    _, _, _, mc2 = chains
    slots = mc2.context.slots
    for word in mc2.chain:
        single = BarChain([(word, 1)])
        assert bar_differential(single, slots) == _reference_differential(single)
    for length in mc2.chain.lengths():
        layer = mc2.chain.component(length)
        expected = _reference_differential(layer)
        assert not expected.is_zero()
        assert bar_differential(layer, slots) == expected
    assert _reference_differential(mc2.chain).is_zero()


def test_build_gate_rejects_a_non_cocycle(chains, monkeypatch):
    # D(chain) at the top of each step is the build's one gate: a layer that
    # leaves the residual open makes the next step raise, and the chain never
    # leaves build_motive_chain
    curve, gs, _, _ = chains

    def doubled(columns, rhs):
        return [2 * xi for xi in _solve_exact(columns, rhs)]

    monkeypatch.setattr("ellmotive.barcx._solve_exact", doubled)
    with pytest.raises(ChainConstructionError, match="miss the residual length 1"):
        build_motive_chain(curve, gs[:1])


def test_chain_coefficients_are_ints(chains):
    # the solved coefficients are +-1/2^k and the columns are integral, and
    # every product is integral: an integral coefficient is stored as an int
    _, _, mc1, mc2 = chains
    for mc in (mc1, mc2):
        assert all(type(c) is int for _, c in mc.chain.items())


def test_chain_n1_structure(chains):
    _, _, mc1, _ = chains
    assert verify_cocycle(mc1.chain, mc1.context.slots)[0]
    assert mc1.chain.lengths() == [1, 2, 3]  # layers n+2 = 3 deep
    final = final_layer_points(mc1.chain)
    assert final and all(len(pts) == 3 for _, pts in final)


def test_chain_n2_structure(chains):
    _, _, _, mc2 = chains
    assert verify_cocycle(mc2.chain, mc2.context.slots)[0]
    assert mc2.chain.lengths() == [1, 2, 3, 4]
    top = max(len(w) for w, _ in mc2.chain.terms)
    assert all(
        is_point_word(w) for w, _ in mc2.chain.terms if len(w) == top
    )


def test_chain_n0_pairing_structure(chains):
    # the Q(-1) chain over two fixed points: its second layer is the
    # displayed pairing eta(a_i) (x) eta(-a_i - sum a_j)
    curve, _, _, _ = chains
    mc = build_motive_chain(curve, [], fixed=tuple(fixed_points(2)))
    assert verify_cocycle(mc.chain, mc.context.slots)[0]
    assert mc.chain.lengths() == [1, 2]
    pair_words = [w for w, _ in mc.chain.terms if len(w) == 2]
    assert pair_words and all(is_point_word(w) for w in pair_words)


def test_leading_term_alone_is_not_cocycle(chains):
    _, _, mc1, mc2 = chains
    for mc in (mc1, mc2):
        top = BarChain.of([(w, c) for w, c in mc.chain.terms if len(w) == 1])
        ok, diff = verify_cocycle(top, mc.context.slots)
        assert not ok and not diff.is_zero()


def test_empty_chain_is_cocycle():
    ok, _ = verify_cocycle(BarChain.of([]), SlotMemo())
    assert ok


def test_kill_certificates(chains):
    _, _, mc1, mc2 = chains
    assert kill_certificates(mc1) == []  # no mu/nu words at n = 1
    kills = kill_certificates(mc2)
    assert kills and all(k.matched for _, k in kills)


def test_kill_cycles_sweep_the_family_they_certify(chains):
    # the kill cycle ("kill", d) of every chain mu/nu family sweeps that
    # family: its own row (d,) comes first, in the group "own", and
    # received a scalar
    _, _, _, mc2 = chains
    ctx = mc2.context
    kills = kill_certificates(mc2)
    assert sorted(d[0] for d, _ in kills) == ["mu"] * 8 + ["nu"] * 8
    for d, k in kills:
        rows = [(group, factors) for group, _, _, factors in ctx.expansions(("kill", d))]
        assert rows[0] == ("own", (d,)), d
        assert all(group == "swept" for group, _ in rows[1:]), d
        assert k.instances[0].scalar is not None, d
        assert certifies(k), d


_KILL_IDS = ["bar:kill-certificates:n=1", "bar:kill-certificates:n=2"] + [
    f"boundaries:nu-killer:n={n},r={r}" for n in (1, 2) for r in range(3)
]


def _kill_statuses():
    # the kill records of both suites on the default config (g1, g2 over Q)
    cfg = default_config()
    records = [r for suite in ("bar", "boundaries") for r in run_suite(cfg, suite).records]
    return {r.id: r.status for r in records if r.id in _KILL_IDS}


def test_kill_record_fails_when_the_family_is_not_swept(monkeypatch):
    # a nu kill cycle with the family's own balance constant b1 sweeps
    # Z(j, b1 + s - b2, b2) for s in div(g_j), never the family itself (b2
    # is off that divisor): its rows match completely, yet they certify
    # other families, so the nu kill records of both suites fail
    assert set(_kill_statuses().values()) == {"pass"}
    real = FamilyContext._sweep

    def sweep(ctx, d):
        g, slot, shift = real(ctx, d)
        return (g, slot, ec_add(d[2], ec_neg(d[3]))) if d[0] == "nu" else (g, slot, shift)

    monkeypatch.setattr(FamilyContext, "_sweep", sweep)
    after = _kill_statuses()
    assert after.pop("bar:kill-certificates:n=1") == "pass"  # no nu family
    assert len(after) == 7 and set(after.values()) == {"fail"}


def test_kill_record_fails_when_the_cycle_skips_its_rows(monkeypatch):
    # a nu kill cycle built off its rows (balance constant moved by -b2)
    # sweeps members its rows do not list: the family's row gets no scalar
    real = formulas.build_nu_killer

    def build(curve, gs, j, shift, b2):
        return real(curve, gs, j, ec_add(shift, ec_neg(b2)), b2)

    monkeypatch.setattr(formulas, "build_nu_killer", build)
    after = _kill_statuses()
    assert after.pop("bar:kill-certificates:n=1") == "pass"
    assert len(after) == 7 and set(after.values()) == {"fail"}


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
        max(len(w) for w, _ in ch.terms) for lbl, ch in rep1.members if lbl != "1"
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
    unit = ()
    assert groups[unit] == chain
    lefts = {l for _, l, r in comultiply(chain) if len(r) == 0}
    assert all(len(w) <= 1 for w in lefts)


def test_grading_coherence(chains):
    _, _, mc1, mc2 = chains
    assert grading_coherent(mc1)
    assert grading_coherent(mc2)


def test_grading_incoherent_layer_detected(chains):
    # h1 (x) h1 = Sym^2 h1 + Q(-1) does not contain the n = 1 leading label
    # Sym^1 h1(E)(-1), so a layer word of two point families breaks the grading
    curve, _, mc1, _ = chains
    P = generator(curve)
    extra = (1, (("pt", P), ("pt", ec_scalar_mul(5, P))))
    assert not grading_coherent(dataclasses.replace(mc1, layers=mc1.layers + [extra]))


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


# ---------------------------------------------------------------------------
# the block-by-block solve against one echelon over every column


def _one_echelon(columns, rhs):
    """The unsplit solve: one `_Echelon` over all columns."""
    ech = _Echelon()
    for j, col in enumerate(columns):
        ech.add(col, j)
    residual, combo = ech.reduce(rhs)
    if residual:
        return None
    return [-combo.get(j, 0) for j in range(len(columns))]


_int_coeff = st.integers(-3, 3).filter(bool)


@st.composite
def _block_systems(draw):
    """Sparse integer systems of up to four components on disjoint key
    ranges, their columns interleaved.  Each block's rhs part is a
    combination of its columns, perturbed in some blocks (which may make
    them inconsistent); the rhs may also carry a key no column touches."""
    columns, rhs = [], {}
    for b in range(draw(st.integers(1, 4))):
        keys = st.integers(10 * b, 10 * b + 4)
        block = draw(st.lists(st.dictionaries(keys, _int_coeff, min_size=1, max_size=3), max_size=4))
        for col, xj in zip(block, draw(st.lists(st.integers(-2, 2), min_size=len(block)))):
            for k, v in col.items():
                rhs[k] = rhs.get(k, 0) + xj * v
        if draw(st.booleans()):
            k = draw(keys)
            rhs[k] = rhs.get(k, 0) + draw(_int_coeff)
        columns.extend(block)
    if draw(st.booleans()):
        rhs[100] = draw(_int_coeff)  # no column has key 100
    order = draw(st.permutations(range(len(columns))))
    return [columns[j] for j in order], {k: v for k, v in rhs.items() if v}


@given(_block_systems())
@settings(max_examples=300, deadline=None)
def test_block_solve_matches_one_echelon(system):
    columns, rhs = system
    x = _solve_exact(columns, rhs)
    assert x == _one_echelon(columns, rhs)
    if 100 in rhs:
        assert x is None
    if x is not None:
        assert _apply(columns, x) == rhs
        # an integral quotient is an int, never Fraction(n, 1)
        assert all(type(v) is int or v.denominator != 1 for v in x)


def _rank_one_functions(field, n):
    """g1..gn of the rational fixture's model y^2 + y = x^3 - x, over field."""
    curve = EllipticCurve.from_coeffs(field, 0, 0, 1, -1, 0)
    P = generator(curve)
    blocks = ((2, 3, 1, 4), (5, 8, 6, 7), (9, 12, 10, 11))[:n]
    return curve, [standard_function(curve, P, ks, f"g{i + 1}") for i, ks in enumerate(blocks)]


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "F_10007"])
def test_contraction_blocks_have_full_column_rank_after_step_0(monkeypatch, field):
    # step 0 pairs each candidate with its reversed word (two columns of
    # rank 1); after it every block has full column rank, so x is forced
    ranks = []  # per solve: (columns, rank) of each block

    def solve(columns, rhs):
        block = []
        for cols in barcx._blocks(columns)[1]:
            ech = _Echelon()
            for j in cols:
                ech.add(columns[j], j)
            block.append((len(cols), len(ech.rows)))
        ranks.append(block)
        return real(columns, rhs)

    real = barcx._solve_exact
    monkeypatch.setattr(barcx, "_solve_exact", solve)
    for n, blocks in ((2, [8, 32, 32]), (3, [12, 84, 256, 192])):
        ranks.clear()
        build_motive_chain(*_rank_one_functions(field, n))
        assert [len(step) for step in ranks] == blocks
        assert ranks[0] == [(2, 1)] * blocks[0]
        assert all(rank == cols for step in ranks[1:] for cols, rank in step), n


@pytest.mark.parametrize("orders", [[(1, 0)], [(2, 1, 0), (1, 2, 0)]], ids=["n=2", "n=3"])
def test_chain_does_not_depend_on_the_function_order(orders):
    # over Q: the n = 2 swap, and at n = 3 the reversal and a 3-cycle
    curve, gs = standard_functions(len(orders[0]))
    expected = repr(build_motive_chain(curve, gs).chain)
    for order in orders:
        assert repr(build_motive_chain(curve, [gs[i] for i in order]).chain) == expected, order


_HASH_SEED_SCRIPT = """
import random
from ellmotive.barcx import _blocks, _solve_exact
rng = random.Random(7)
for _ in range(200):
    columns = [
        {f"k{rng.randrange(12)}": rng.choice((-2, -1, 1, 3)) for _ in range(rng.randrange(1, 4))}
        for _ in range(rng.randrange(1, 8))
    ]
    x0 = [rng.randrange(-2, 3) for _ in columns]
    rhs = {}
    for col, xj in zip(columns, x0):
        for k, v in col.items():
            rhs[k] = rhs.get(k, 0) + xj * v
    print(_blocks(columns)[1], _solve_exact(columns, {k: v for k, v in rhs.items() if v}))
"""


def test_block_solve_independent_of_hash_seed():
    # string keys hash differently under each seed; the blocks and x must not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env, capture_output=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0].count(b"\n") == 200 and outputs[0] == outputs[1]
