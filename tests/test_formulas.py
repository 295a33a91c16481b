"""The displayed boundary identities, instance by instance."""

from collections import Counter
from fractions import Fraction

import pytest

from ellmotive.curves import ec_add, ec_scalar_mul
from ellmotive.cycles import AdmissibilityError
from ellmotive.fixtures import fixed_points, generator, standard_functions
from ellmotive.gl2 import H1, MotiveError, PureMotive, tensor_supports
from ellmotive.lincomb import LinComb
from ellmotive.formulas import (
    FamilyContext,
    GroupMatchReport,
    MatchInstance,
    _match_groups,
    certifies,
    desc_motive,
    verify_boundary_formulas,
    verify_expansion,
)


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
            assert rep.passed, (n, r)


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
    with pytest.raises(AdmissibilityError, match="overlap"):
        FamilyContext(curve, [gs[0], gs[0]])
