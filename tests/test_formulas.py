"""The displayed boundary identities, instance by instance."""

from collections import Counter
from fractions import Fraction

import pytest

from ellmotive.curves import ec_add, ec_scalar_mul
from ellmotive.fixtures import fixed_points, generator, standard_functions
from ellmotive.lincomb import LinComb
from ellmotive.formulas import (
    _match_groups,
    verify_boundary_formulas,
    verify_eta_boundary,
    verify_mu_boundary,
    verify_mu_killer,
    verify_nu_boundary,
    verify_nu_killer,
)


@pytest.fixture(scope="module")
def setup():
    curve, gs = standard_functions(2)
    return curve, gs, fixed_points(2)


def test_eta_divisor_group_n1(setup):
    curve, gs, _ = setup
    rep = verify_eta_boundary(curve, 1, gs[:1])
    assert rep.complete
    # only the divisor-point group is populated at r = 0
    groups = {inst.group for inst in rep.instances if inst.scalar is not None}
    assert groups == {"divisor-point"}
    scalars = {inst.scalar for inst in rep.instances if inst.group == "divisor-point"}
    assert len(scalars) == 1  # one uniform coefficient, reported not asserted


def test_eta_all_groups_n1_r2(setup):
    curve, gs, afix = setup
    rep = verify_eta_boundary(curve, 1, gs[:1], fixed=tuple(afix))
    assert rep.complete
    groups = {inst.group for inst in rep.instances}
    assert groups == {"divisor-point", "mu", "nu"}
    assert not rep.unmatched


def test_eta_n0_display(setup):
    # the Q(-1) display: d(eta) = sum_r delta[eta(a_i) (x) eta(-a_i - sum a_j)]
    curve, gs, afix = setup
    rep = verify_eta_boundary(curve, 0, [], fixed=tuple(afix))
    assert rep.complete
    assert all(inst.group == "divisor-point" for inst in rep.instances)


def test_mu_boundary(setup):
    curve, gs, afix = setup
    rep = verify_mu_boundary(curve, 2, gs, afix[0])
    assert rep.complete
    assert len(rep.instances) == sum(len(g.divisor.terms) for g in gs)


def test_nu_boundary_strict_zero_n1(setup):
    curve, gs, afix = setup
    rep = verify_nu_boundary(curve, 1, gs[:1], 1, afix[0], afix[1])
    assert rep.strict_zero


def test_nu_boundary_discharged_n2(setup):
    curve, gs, afix = setup
    rep = verify_nu_boundary(curve, 2, gs, 1, afix[0], afix[1])
    assert not rep.strict_zero
    assert rep.discharge.complete
    # the strict boundary has one family per point of the other function
    assert rep.strict_term_count == 4


def test_killers(setup):
    curve, gs, afix = setup
    k1 = verify_mu_killer(curve, gs, 1, afix[0])
    assert k1.all_reproduced
    assert k1.tail_term_count > 0  # the face tail is the homotopy remainder
    k2 = verify_nu_killer(curve, gs, 1, afix[0], afix[1])
    assert k2.all_reproduced


def test_full_report_passes(setup):
    curve, gs, afix = setup
    for n in (1, 2):
        for r in (0, 1, 2):
            rep = verify_boundary_formulas(curve, n, gs[:n], fixed=tuple(afix[:r]))
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
    rep = verify_eta_boundary(curve, 1, [g], mode="fn")
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
        rep = verify_eta_boundary(curve, n, gs[:n], fixed=tuple(points))
        assert rep.complete
        return {g: Counter(rep.scalars(g)) for g in ("divisor-point", "mu", "nu")}

    assert scalars(afix) == scalars(afix[::-1])
