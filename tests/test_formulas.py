"""The displayed boundary identities, instance by instance."""

from collections import Counter
from fractions import Fraction

import pytest

from ellmotive.barcx import build_motive_chain, kill_certificates
from ellmotive.config import Bounds, Config
from ellmotive.curves import ec_add, ec_scalar_mul
from ellmotive.cycles import AdmissibilityError
from ellmotive.fixtures import generator, rank_one_curve, standard_function, standard_functions
from ellmotive.gl2 import H1, MotiveError, PureMotive, tensor_supports
from ellmotive.lincomb import LinComb
from ellmotive.formulas import (
    FamilyContext,
    GroupMatchReport,
    MatchInstance,
    _match_groups,
    certifies,
    desc_key,
    desc_motive,
    verify_boundary_formulas,
    verify_expansion,
)
from ellmotive.suites import run_suite
from reference import fixed_points, formulas_pass


@pytest.fixture(scope="module")
def setup():
    curve, gs = standard_functions(2)
    return curve, gs, fixed_points(2)


def test_eta_divisor_group_n1(setup):
    curve, gs, _ = setup
    rep = verify_boundary_formulas(FamilyContext(curve, gs[:1])).eta
    assert rep.complete
    # only the divisor-point group is populated at r = 0
    groups = {inst.group for inst in rep.instances if inst.scalar is not None}
    assert groups == {"divisor-point"}
    scalars = {inst.scalar for inst in rep.instances if inst.group == "divisor-point"}
    assert len(scalars) == 1  # one uniform coefficient, reported not asserted


def test_eta_all_groups_n1_r2(setup):
    curve, gs, afix = setup
    rep = verify_boundary_formulas(FamilyContext(curve, gs[:1]), tuple(afix)).eta
    assert rep.complete
    groups = {inst.group for inst in rep.instances}
    assert groups == {"divisor-point", "mu", "nu"}
    assert not rep.unmatched


def test_eta_n0_display(setup):
    # the Q(-1) display: d(eta) = sum_r delta[eta(a_i) (x) eta(-a_i - sum a_j)]
    curve, gs, afix = setup
    rep = verify_boundary_formulas(FamilyContext(curve, []), tuple(afix)).eta
    assert rep.complete
    assert all(inst.group == "divisor-point" for inst in rep.instances)


def test_mu_boundary(setup):
    curve, gs, afix = setup
    rep = verify_boundary_formulas(FamilyContext(curve, gs), tuple(afix[:1])).mu
    assert rep.complete
    assert len(rep.instances) == sum(len(g.divisor.terms) for g in gs)


def test_nu_boundary_strict_zero_n1(setup):
    curve, gs, afix = setup
    rep = verify_boundary_formulas(FamilyContext(curve, gs[:1]), tuple(afix[:2]))
    assert rep.nu_terms == 0


def test_nu_boundary_discharged_n2(setup):
    curve, gs, afix = setup
    rep = verify_boundary_formulas(FamilyContext(curve, gs), tuple(afix[:2]))
    assert rep.nu_terms
    assert rep.nu.complete
    # the strict boundary has one family per point of the other function
    assert rep.nu_terms == 4


def test_killers(setup):
    curve, gs, afix = setup
    (f1, k1), (f2, k2) = verify_boundary_formulas(
        FamilyContext(curve, gs), tuple(afix[:2])
    ).killers.items()
    assert f1 == "mu-killer" and f2 == "nu-killer"
    assert k1.matched
    assert len(k1.unmatched) > 0  # the face tail is the homotopy remainder
    assert k2.matched


@pytest.mark.parametrize(
    "rows, certified",
    [
        ([("own", 1, 4), ("swept", -1, 4)], True),
        ([("own", 1, 4), ("swept", None, 0)], True),  # a vanishing member
        ([("own", 1, 4), ("swept", None, 4)], False),  # a swept member unmatched
        ([("own", None, 4), ("swept", 1, 4)], False),  # the family itself unmatched
        ([("own", None, 0), ("swept", 1, 4)], False),  # the family vanishes
        ([("swept", 1, 4), ("swept", 1, 4)], False),  # the family is not swept
    ],
)
def test_certifies_needs_every_swept_member_and_the_family(rows, certified):
    instances = [MatchInstance(group, "label", scalar, terms) for group, scalar, terms in rows]
    assert certifies(GroupMatchReport(instances, [])) is certified


def test_full_report_passes(setup):
    curve, gs, afix = setup
    for n in (1, 2):
        for r in (0, 1, 2):
            rep = verify_boundary_formulas(FamilyContext(curve, gs[:n]), tuple(afix[:r]))
            assert formulas_pass(rep), (n, r)


def test_fn_mode_formula_n1():
    from ellmotive.curves import CurvePoint
    from ellmotive.cycles import UserFunction
    from ellmotive.divisors import FormalDivisor
    from ellmotive.fixtures import two_torsion_curve_f101

    curve = two_torsion_curve_f101()
    P = CurvePoint.affine(curve, 1, 2)
    g = UserFunction(
        "g",
        FormalDivisor.of(
            curve,
            [
                (ec_scalar_mul(2, P), 1),
                (ec_scalar_mul(3, P), 1),
                (P, -1),
                (ec_scalar_mul(4, P), -1),
            ],
        ),
    )
    ctx = FamilyContext(curve, [g], "fn")
    rep = verify_expansion(ctx, ("eta", (), ctx.names))
    assert rep.complete


def test_matcher_reads_key_order_not_insertion_order():
    # bases inserted against their key order: the scalar comes from the least
    # key present in the residual, and the leftover terms are listed by key
    lhs = LinComb([(5, 4), (3, 1), (2, 3), (1, 2)])
    grp = LinComb([(2, 1), (1, 1)])
    rep = _match_groups(lhs, [("g", "first", grp), ("g", "absent", LinComb([(9, 1)]))])
    assert [inst.scalar for inst in rep.instances] == [2, None]
    assert rep.unmatched == [("2", 1), ("3", 1), ("5", 4)]
    assert not rep.matched and not rep.complete


@pytest.mark.parametrize("n", [1, 2])
def test_eta_table_does_not_depend_on_point_order(setup, n):
    # the chain builder passes the fixed points sorted, the suite in config order
    curve, gs, afix = setup

    def scalars(points):
        rep = verify_boundary_formulas(FamilyContext(curve, gs[:n]), tuple(points)).eta
        assert rep.complete
        return {
            g: Counter(inst.scalar for inst in rep.instances if inst.group == g)
            for g in ("divisor-point", "mu", "nu")
        }

    assert scalars(afix) == scalars(afix[::-1])


def test_desc_motive_labels():
    # pt -> h1(E), eta -> Sym^n h1(E)(-1), mu -> Sym^{n+1} h1(E),
    # nu -> Sym^{n-1} h1(E)(-1), with n the number of names
    curve, gs = standard_functions(3)
    a, b = fixed_points(2)
    assert desc_motive(("pt", a)) == H1
    for n in range(4):
        names = tuple(g.name for g in gs[:n])
        assert desc_motive(("eta", (a,), names)) == PureMotive(n, 1)
        assert desc_motive(("mu", a, names)) == PureMotive(n + 1, 0)
        if n:
            assert desc_motive(("nu", 1, a, b, names)) == PureMotive(n - 1, 1)
        else:
            with pytest.raises(MotiveError):
                desc_motive(("nu", 1, a, b, names))
    with pytest.raises(ValueError):
        desc_motive(("kill", ("mu", a, ("g1",))))


def test_table_products_carry_the_family_label():
    # every displayed product delta[left (x) right] tensors down to a sum
    # containing the label of the family whose boundary it expands
    curve, gs = standard_functions(3)
    a, b = fixed_points(2)
    for n in range(4):
        ctx = FamilyContext(curve, gs[:n])
        descs = [("eta", (a,), ctx.names)]
        if n:
            descs += [("mu", a, ctx.names), ("nu", 1, a, b, ctx.names)]
        for desc in descs:
            for *_, (left, right) in ctx.expansions(desc):
                labels = (desc_motive(left), desc_motive(right))
                assert tensor_supports(labels, desc_motive(desc)), (desc, left, right)
                # the fast path of cycles._point_product: a point factor
                assert "pt" in (left[0], right[0]), (desc, left, right)
        # a kill-cycle row is one swept member, the family's own row first
        for d in descs[1:]:
            rows = [factors for *_, factors in ctx.expansions(("kill", d))]
            assert rows[0] == (d,), d
            assert all(len(factors) == 1 for factors in rows), d


def test_context_rejects_an_inadmissible_tuple(setup):
    # the tuple is checked once, when its context is built
    curve, gs, _ = setup
    with pytest.raises(AdmissibilityError, match="meets the support of g1 up to sign"):
        FamilyContext(curve, [gs[0], gs[0]])


def _rank_one_config(blocks):
    """g_i = (k1 P) + (k2 P) - (k3 P) - (k4 P) on the rational fixture."""
    curve = rank_one_curve()
    P = generator(curve)
    gs = [standard_function(curve, P, ks, f"g{i + 1}") for i, ks in enumerate(blocks)]
    return Config(curve, gs, "fbar", Bounds(), 0, raw={})


@pytest.mark.parametrize(
    "blocks, suite, record, status",
    [
        # two pairs of same-sign coincident members, d's own row among them:
        # each pair is one row, and each gets a scalar
        (((4, 7, 10, 1), (9, 5, 12, 2)), "bar", "bar:kill-certificates:n=2", "pass"),
        # two swept members are one cycle with opposite multiplicities: their
        # merged row is zero and dropped, so no swept member lacks a scalar
        (((5, 6, 3, 8), (10, 11, 9, 12)), "boundaries", "boundaries:nu-killer:n=1,r=1", "pass"),
        # d's own member cancels against a swept one, so the kill cycle's
        # boundary lacks d: no certificate
        (((10, 8, 6, 12), (3, 9, 11, 1)), "bar", "bar:kill-certificates:n=2", "fail"),
    ],
    ids=["same-sign-pairs", "swept-pair-cancels", "own-row-cancels"],
)
def test_coincident_kill_rows_merge_before_matching(blocks, suite, record, status):
    records = {r.id: r for r in run_suite(_rank_one_config(blocks), suite).records}
    assert records[record].status == status
    if status == "fail":
        # the fail record names the one family of 16 whose certificate fails
        assert records[record].details == (
            "1 of 16 families not certified: nu[1][(0,0),(0,0)][g1]"
        )


def test_merged_kill_rows():
    # the same-sign pairs of nu[1][(0,0),(0,0)][g2] on the first tuple above
    # become two rows under joined labels, d's in "own"
    cfg = _rank_one_config(((4, 7, 10, 1), (9, 5, 12, 2)))
    kills = dict(kill_certificates(build_motive_chain(cfg.curve, cfg.functions)))
    nu = next(d for d in kills if desc_key(d) == "nu[1][(0,0),(0,0)][g2]")
    rows = [(i.group, i.label.count(" = "), i.scalar) for i in kills[nu].instances]
    assert rows == [("own", 1, Fraction(1, 2)), ("swept", 1, Fraction(1, 2))]
    assert certifies(kills[nu])
    # where d cancels against a swept member no row is d's own
    cfg = _rank_one_config(((10, 8, 6, 12), (3, 9, 11, 1)))
    kills = dict(kill_certificates(build_motive_chain(cfg.curve, cfg.functions)))
    failed = [d for d, k in kills.items() if not certifies(k)]
    assert [desc_key(d) for d in failed] == ["nu[1][(0,0),(0,0)][g1]"]
    assert [i.group for i in kills[failed[0]].instances] == ["swept", "swept"]
