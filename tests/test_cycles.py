"""The symbolic cycle engine: families, canonical forms, boundary, products."""

import itertools
import os
import subprocess
import sys

import pytest
from fractions import Fraction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellmotive.barcx import build_motive_chain
from ellmotive.curves import CurvePoint, EllipticCurve, ec_add, ec_neg, ec_scalar_mul
from ellmotive.cycles import (
    AdmissibilityError,
    CycleError,
    CycleSum,
    FbarSpec,
    FunCoord,
    ParamCycle,
    PointExpr,
    UserFunction,
    boundary,
    build_family,
    canonical_term,
    check_admissible,
    decorate,
    external_product,
    term_faces,
)
from ellmotive.cycles import (
    _concatenate,
    _cube_row,
    _point_product,
    _rebuild,
    _scan,
)
from ellmotive.divisors import DegeneracyError, FormalDivisor, class_equation
from ellmotive.fields import field_from_tag
from ellmotive.fixtures import generator, rank_one_curve, standard_functions
from ellmotive.formulas import FamilyContext
from ellmotive.orbits import (
    _cube_ser,
    _ser,
    _sorted_order,
    _table_row,
)
from ellmotive.symgrp import Permutation, YoungShape, transpose_projector
from reference import (
    codim,
    fixed_points,
    negate_ecoord,
    permute_ecoords,
    permute_qcoords,
    rename_params,
    sorted_arrangements,
)


@pytest.fixture(scope="module")
def setup():
    curve, gs = standard_functions(3)
    return curve, gs, fixed_points(2)


def test_family_shapes(setup):
    curve, gs, afix = setup
    X = build_family("X", curve, gs[:1])
    assert (X.b, X.c, codim(X)) == (3, 2, 3)
    X2 = build_family("X", curve, gs[:2], fixed=(afix[0],))
    assert (X2.b, X2.c, codim(X2)) == (4, 3, 4)
    Y = build_family("Y", curve, gs[:1], fixed=(afix[0],))
    assert (Y.b, Y.c, codim(Y)) == (2, 1, 2)
    Z = build_family("Z", curve, gs[:1], j=1, b1=afix[0], b2=afix[1])
    assert (Z.b, Z.c, codim(Z)) == (2, 1, 2)
    # Z's j-th cube coordinate is g_j at the constant argument b2
    assert Z.qcoords[0] == FunCoord(gs[0], (PointExpr.constant(afix[1]),))


def test_Y_without_functions_is_the_constant_point(setup):
    # Y(0, a): the balance coordinate -a, with no parameter and no cube slot
    curve, _, afix = setup
    Y = build_family("Y", curve, [], fixed=(afix[0],))
    assert Y == ParamCycle(curve, (), (PointExpr.constant(ec_neg(afix[0])),), ())
    assert (Y.b, Y.c, Y.dim) == (1, 0, 0)


def test_admissibility(setup):
    curve, gs, _ = setup
    assert check_admissible(gs) == ()
    # support containing the identity, and an even function, both flagged
    P = generator(curve)
    even = UserFunction(
        "ev",
        FormalDivisor.of(
            curve, [(P, 1), (ec_neg(P), 1), (CurvePoint.at_infinity(curve), -2)]
        ),
    )
    rep = check_admissible([even])
    assert any("excluded points" in v for v in rep)
    assert any("even" in v for v in rep)
    # point-count shortfall: an empty divisor is principal but has no points
    rep = check_admissible([UserFunction("e", FormalDivisor.of(curve, []))])
    assert any("distinct support points" in v for v in rep)
    # overlapping supports
    rep = check_admissible([gs[0], gs[0]])
    assert any("meets the support of g1 up to sign" in v for v in rep)


def test_inadmissible_input_raises(setup):
    curve, gs, afix = setup
    with pytest.raises(AdmissibilityError):
        build_family("X", curve, gs[:1], fixed=(CurvePoint.at_infinity(curve),))
    with pytest.raises(AdmissibilityError):
        # b2 inside the divisor of g_j makes the constant coordinate degenerate
        build_family("Z", curve, gs[:1], j=1, b1=afix[0], b2=gs[0].divisor.support()[0])


# y^2 = x^3 + 1 over Q: (-1, 0) has order 2 and (0, 1) order 3
_E6 = EllipticCurve.from_coeffs(field_from_tag("rational"), 0, 0, 0, 0, 1)
_T2, _T3 = CurvePoint.affine(_E6, -1, 0), CurvePoint.affine(_E6, 0, 1)


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(
            lambda c, gs, a, b: build_family("X", _E6, [], fixed=(_T2,)),
            AdmissibilityError, "2- or 3-torsion", id="X-fixed-2-torsion",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("X", _E6, [], fixed=(_T3,)),
            AdmissibilityError, "2- or 3-torsion", id="X-fixed-3-torsion",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("X", c, gs[:1], fixed=(a, a)),
            AdmissibilityError, "repeated", id="X-fixed-repeated",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("X", c, gs[:1], fixed=gs[0].divisor.support()[:1]),
            AdmissibilityError, "meets the support of g1", id="X-fixed-on-support",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("X", c, []),
            CycleError, "n \\+ r >= 1", id="X-n-plus-r-zero",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("Z", c, gs[:2], b1=a, b2=b),
            CycleError, "needs j, b1, b2", id="Z-without-j",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("Z", c, gs[:2], j=1, b1=a),
            CycleError, "needs j, b1, b2", id="Z-without-b2",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("Z", c, gs[:2], j=0, b1=a, b2=b),
            CycleError, "out of range", id="Z-j-zero",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("Z", c, gs[:2], j=3, b1=a, b2=b),
            CycleError, "out of range", id="Z-j-above-n",
        ),
        pytest.param(
            lambda c, gs, a, b: build_family("W", c, gs[:1]),
            CycleError, "unknown family kind", id="unknown-family",
        ),
        pytest.param(
            lambda c, gs, a, b: decorate("eta_point", CurvePoint.at_infinity(c)),
            CycleError, "nonzero point", id="eta-point-at-identity",
        ),
        pytest.param(
            lambda c, gs, a, b: decorate("xi", build_family("Y", c, gs[:1], fixed=(a,))),
            CycleError, "unknown decoration kind", id="unknown-decoration",
        ),
    ],
)
def test_family_input_guards(setup, build, error, match):
    curve, gs, (a, b) = setup
    with pytest.raises(error, match=match):
        build(curve, gs, a, b)


def test_canonicalize_merges_relabeled_copies(setup):
    curve, gs, _ = setup
    X = build_family("X", curve, gs[:1])
    # the reversed mapping also reverses the alphabetical order of the names
    for mapping in ({"x": "a", "y1": "b"}, {"x": "b", "y1": "a"}):
        relabeled = rename_params(X, mapping)
        assert CycleSum.of([(X, 1), (relabeled, -1)]).is_zero()
        s = CycleSum.of([(X, 1), (relabeled, 1)])
        assert len(s.terms) == 1 and s == CycleSum.single(X).scale(2)


def test_canonicalize_negation_and_swap(setup):
    curve, gs, _ = setup
    X = build_family("X", curve, gs[:1])
    # negating one E-coordinate costs a sign
    negd = negate_ecoord(X, 1)
    s = CycleSum.of([(X, 1), (negd, 1)])
    assert s.is_zero()
    # a term plus its own negation is empty
    assert CycleSum.of([(X, 1), (X, -1)]).is_zero()


def test_cube_swap_alternating(setup):
    curve, gs, afix = setup
    Z = build_family("Z", curve, gs[:2], j=1, b1=afix[0], b2=afix[1])
    s = CycleSum.single(Z)
    swapped = CycleSum.of([(permute_qcoords(Z, Permutation.transposition(Z.c, 1, 2)), 1)])
    # Z minus its cube swap canonicalizes to 2 * (one term); the swap itself
    # folds to -Z, so the symmetrized combination dies
    diff = s - swapped
    assert len(diff.terms) == 1
    assert abs(diff.terms[0][1]) == 2
    assert (s + swapped).is_zero()


def test_eta_point_and_boundary(setup):
    curve, _, _ = setup
    P = generator(curve)
    eta = decorate("eta_point", P)
    assert len(eta.terms) == 1 and abs(eta.terms[0][1]) == 2  # (p) - (-p) folds
    assert boundary(eta).is_zero()
    # at 2-torsion the class degenerates to zero
    from ellmotive.fixtures import two_torsion_curve_f11
    from ellmotive.curves import full_two_torsion

    E11 = two_torsion_curve_f11()
    u = full_two_torsion(E11)[0]
    assert CycleSum.of(
        [(ParamCycle(E11, (), (PointExpr.constant(u),), ()), 1)]
    ).is_zero()


def test_boundary_of_Y_matches_display(setup):
    curve, gs, afix = setup
    a = afix[0]
    Y = build_family("Y", curve, gs[:1], fixed=(a,))
    B = boundary(CycleSum.single(Y))
    # one point-pair family per divisor point: (-q - a, q)
    assert len(B.terms) == len(gs[0].divisor.terms)
    for cyc, coeff in B.terms:
        assert cyc.b == 2 and cyc.c == 0 and cyc.dim == 0
    # and the multiplicities carry through with the face sign
    mults = sorted(abs(c) for _, c in B.terms)
    assert mults == [1, 1, 1, 1]


def test_boundary_squares_to_zero(setup):
    curve, gs, afix = setup
    for n, r in ((1, 0), (1, 2), (2, 1)):
        X = build_family("X", curve, gs[:n], fixed=tuple(afix[:r]))
        eta = decorate("eta", X)
        assert boundary(boundary(eta)).is_zero()
    Y = build_family("Y", curve, gs[:2], fixed=(afix[0],))
    assert boundary(boundary(decorate("mu", Y))).is_zero()
    Z = build_family("Z", curve, gs[:2], j=2, b1=afix[0], b2=afix[1])
    assert boundary(boundary(decorate("nu", Z))).is_zero()


def test_face_counts(setup):
    # each unary cube coordinate with divisor of positive degree d contributes
    # d zero faces and d pole faces, before cancellation
    curve, gs, afix = setup
    Y = build_family("Y", curve, gs[:2], fixed=(afix[0],))
    faces = term_faces(Y)
    # two functions, each with 2 zeros and 2 poles
    assert len(faces) == 8
    zero_faces = [f for c, f in faces if c > 0]
    assert len(zero_faces) == 4


def test_projector_quasi_idempotent_on_cycles(setup):
    curve, gs, _ = setup
    X = build_family("X", curve, gs[:1])
    element = _decoration_projector(X.b)
    once = _reference_projector(CycleSum.single(X), element)
    twice = _reference_projector(once, element)
    # the 2-term signed projector squares to twice itself
    assert twice.terms == once.scale(2).terms


def test_boundary_commutes_with_projector(setup):
    curve, gs, _ = setup
    X = build_family("X", curve, gs[:2])
    left = boundary(decorate("eta", X))
    right = _reference_projector(boundary(CycleSum.single(X)), _decoration_projector(X.b))
    assert (left - right).is_zero()


def test_external_product(setup):
    curve, gs, _ = setup
    P = generator(curve)
    Q = ec_scalar_mul(5, P)
    a = decorate("eta_point", P)
    b = decorate("eta_point", Q)
    prod = external_product(a, b)
    for cyc, _ in prod.terms:
        assert cyc.b == 2 and cyc.c == 0
    # associativity after canonical forms
    c = decorate("eta_point", ec_scalar_mul(7, P))
    left = external_product(external_product(a, b), c)
    right = external_product(a, external_product(b, c))
    assert (left - right).is_zero()
    # the product is a graded map: (b, c) degrees add
    curve2, gs = standard_functions(2)
    Y = CycleSum.single(build_family("Y", curve2, gs[:1], fixed=(ec_scalar_mul(13, P),)))
    py = external_product(Y, a)
    for cyc, _ in py.terms:
        assert cyc.b == 3 and cyc.c == 1


def test_external_product_names_are_deterministic(setup):
    # the right factor's parameters follow the left factor's t0..t<k-1>, so
    # computing one product again builds the same cycle and the canonical
    # cache gains nothing
    from ellmotive import cycles

    curve, gs, afix = setup
    Y1 = CycleSum.single(build_family("Y", curve, gs[:1], fixed=(afix[0],)))
    Y2 = CycleSum.single(build_family("Y", curve, gs[1:2], fixed=(afix[1],)))
    first = external_product(Y1, Y2)
    before = len(cycles._canonical_cache)
    assert external_product(Y1, Y2) == first
    assert len(cycles._canonical_cache) == before


def test_cycles_does_not_import_gl2():
    # cycle sums carry no motive labels, and a decoration is the scalar its
    # projector acts by: the engine needs neither the label nor the group algebra
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, ellmotive.cycles; "
        "print(sorted(m for m in ('ellmotive.gl2', 'ellmotive.symgrp') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True
    )
    assert proc.stdout.strip() == "[]"


def test_leibniz_rule(setup):
    curve, gs, afix = setup
    Y1 = CycleSum.single(build_family("Y", curve, gs[:1], fixed=(afix[0],)))
    Y2 = CycleSum.single(build_family("Y", curve, gs[1:2], fixed=(afix[1],)))
    lhs = boundary(external_product(Y1, Y2))
    c1 = Y1.terms[0][0].c
    sign = Fraction(-1) if c1 % 2 else Fraction(1)
    rhs = external_product(boundary(Y1), Y2) + external_product(Y1, boundary(Y2)).scale(sign)
    assert (lhs - rhs).is_zero()


def test_degenerate_face_detected(setup):
    curve, gs, _ = setup
    # a function with the identity in its support breaks the F-bar face rules
    P = generator(curve)
    g_bad = UserFunction(
        "bad",
        FormalDivisor.of(
            curve,
            [
                (P, 2),
                (CurvePoint.at_infinity(curve), -1),
                (ec_scalar_mul(2, P), -1),
            ],
        ),
    )
    assert check_admissible([g_bad])


def _orbit_seeds(setup):
    """The three n=2 families and six faces of X."""
    curve, gs, afix = setup
    seeds = [
        build_family("X", curve, gs[:2], fixed=(afix[0],)),
        build_family("Y", curve, gs[:2], fixed=(afix[1],)),
        build_family("Z", curve, gs[:2], j=2, b1=afix[0], b2=afix[1]),
    ]
    return seeds + [f for _, f in term_faces(seeds[0])[:6]]


def test_canonical_form_orbit_invariance(setup):
    # random words of the signed symmetry group map a term to +-itself
    import random

    rng = random.Random(5)
    for base in _orbit_seeds(setup):
        canon, sign = canonical_term(base)
        # every alphabetical order of the parameter names gives the same form
        for order in itertools.permutations(range(base.dim)):
            mapping = {p: f"p{k}" for p, k in zip(base.params, order)}
            assert canonical_term(rename_params(base, mapping)) == (canon, sign)
        if canon is None:
            continue
        for _ in range(12):
            moved, acc = base, 1
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                if op == 0:
                    images = tuple(rng.sample(range(1, moved.b + 1), moved.b))
                    sigma = Permutation(images)
                    moved = permute_ecoords(moved, sigma)
                    acc *= sigma.sign()
                elif op == 1:
                    i = rng.randint(1, moved.b)
                    moved = negate_ecoord(moved, i)
                    acc *= -1
                else:
                    mapping = {p: f"r{k}_{p}" for k, p in enumerate(moved.params)}
                    moved = rename_params(moved, mapping)
            canon2, sign2 = canonical_term(moved)
            assert canon2 == canon
            assert sign2 == sign * acc


def test_cube_only_parameters_rename_invariant(setup):
    # z and w occur only inside a symmetric cube coordinate
    curve, gs, _ = setup
    x, z, w = (PointExpr.param(curve, n) for n in ("x", "z", "w"))
    fbar = FunCoord(FbarSpec(curve, 2), (z, w - z))
    base = ParamCycle(curve, ("x", "z", "w"), (x,), (fbar, FunCoord(gs[0], (x,))))
    canon, sign = canonical_term(base)
    assert canon is not None
    for order in itertools.permutations(range(3)):
        mapping = {p: f"p{k}" for p, k in zip(base.params, order)}
        assert canonical_term(rename_params(base, mapping)) == (canon, sign)
    swapped = permute_qcoords(base, Permutation((2, 1)))
    assert canonical_term(swapped) == (canon, -sign)


def test_cube_only_parameter_sign_is_free(setup):
    # z occurs only in a cube coordinate, so z -> -z is a free reparametrization
    curve, gs, _ = setup
    x, z = PointExpr.param(curve, "x"), PointExpr.param(curve, "z")
    plus = ParamCycle(curve, ("x", "z"), (x,), (FunCoord(gs[0], (x,)), FunCoord(gs[1], (z,))))
    minus = ParamCycle(curve, ("x", "z"), (x,), (FunCoord(gs[0], (x,)), FunCoord(gs[1], (-z,))))
    assert CycleSum.of([(plus, 1), (minus, -1)]).is_zero()


# ---------------------------------------------------------------------------
# the minimal-prefix scan against an exhaustive reference scan


def _reference_namings(ecoords, params):
    """Every naming that puts the arranged E-coordinates in normal form (first
    occurrences in order, by |coeff| within a coordinate, positive), then the
    remaining parameters in every order with both signs."""
    namings = [{}]
    for e in ecoords:
        extended = []
        for naming in namings:
            fresh = [(n, c) for n, c in e.coeffs if n not in naming]
            for order in itertools.permutations(fresh):
                if [abs(c) for _, c in order] != sorted(abs(c) for _, c in order):
                    continue
                ext = dict(naming)
                for n, c in order:
                    ext[n] = (f"t{len(ext)}", 1 if c > 0 else -1)
                extended.append(ext)
        namings = extended
    out = []
    for naming in namings:
        rest = [p for p in params if p not in naming]
        for order in itertools.permutations(rest):
            for signs in itertools.product((1, -1), repeat=len(rest)):
                ext = dict(naming)
                for p, s in zip(order, signs):
                    ext[p] = (f"t{len(ext)}", s)
                out.append(ext)
    return out


def _reference_canonical(cycle):
    """The full product of arrangements, negations, namings and cube orders:
    the least serialization, or zero when any serialization is reached with
    both signs."""
    profiles = [_table_row(e)[1] for e in cycle.ecoords]
    seen, best = {}, None
    for arrangement, perm_sign in sorted_arrangements(profiles):
        for flips in itertools.product((0, 1), repeat=cycle.b):
            ecoords = [-cycle.ecoords[i] if f else cycle.ecoords[i]
                       for i, f in zip(arrangement, flips)]
            sign = -perm_sign if sum(flips) % 2 else perm_sign
            for naming in _reference_namings(ecoords, cycle.params):
                eser = tuple(_ser(e.coeffs, e.const.key(), naming) for e in ecoords)
                cube = [_cube_ser(_cube_row(q), naming) for q in cycle.qcoords]
                qsers, orders = list(zip(*cube)) or [(), ()]
                for qorder, qsign in sorted_arrangements(qsers):
                    ser = (eser, tuple(qsers[j] for j in qorder))
                    if seen.setdefault(ser, sign * qsign) != sign * qsign:
                        return None, 0
                    if best is None or ser < best[0]:
                        chosen = tuple(zip(arrangement, flips))
                        best = (ser, sign * qsign, (chosen, qorder, orders, naming))
    return _rebuild(cycle, *best[2]), best[1]


def test_scan_matches_reference_on_families_and_faces(setup):
    seeds = _orbit_seeds(setup)
    faces = [f for seed in seeds for _, f in term_faces(seed)]
    # faces of the faces' canonical forms: dd, where most scans happen
    canons = [c for c, _ in map(canonical_term, faces) if c is not None]
    second = [f for c in canons for _, f in term_faces(c)]
    assert len(second) > len(faces)
    for cycle in seeds + faces + second:
        assert canonical_term(cycle) == _reference_canonical(cycle), cycle


def _f101_pieces():
    from ellmotive.curves import full_two_torsion
    from ellmotive.fixtures import two_torsion_curve_f101

    curve = two_torsion_curve_f101()
    P = CurvePoint.affine(curve, 1, 2)  # of odd order
    g = UserFunction(
        "g",
        FormalDivisor.of(
            curve,
            [(ec_scalar_mul(k, P), c) for k, c in ((2, 1), (3, 1), (1, -1), (4, -1))],
        ),
    )
    # a 2-torsion constant makes a negated constant coordinate equal to itself
    consts = [CurvePoint.at_infinity(curve), P, ec_neg(P), ec_scalar_mul(3, P)]
    consts.append(full_two_torsion(curve)[0])
    return curve, g, FbarSpec(curve, 2), consts


_F101 = _f101_pieces()


@st.composite
def _f101_cycles(draw):
    curve, g, fbar, consts = _F101
    names = ("u", "v", "w")[: draw(st.integers(1, 3))]
    coeff = st.sampled_from((-2, -1, -1, 0, 0, 1, 1, 2))

    def expr(names=names):
        items = [(n, draw(coeff)) for n in names]
        return PointExpr.make(curve, items, draw(st.sampled_from(consts)))

    pool = [expr(), expr()]  # repeated coordinates and arguments
    b = draw(st.integers(1, 4))
    ecoords = [draw(st.sampled_from(pool + [None])) or expr() for _ in range(b)]
    qcoords = []
    for kind in draw(st.lists(st.sampled_from("gKF"), max_size=3)):
        # z is only ever seen by cube coordinates
        arg = draw(st.sampled_from(pool + [None])) or expr(names + ("z",))
        if kind == "g":
            qcoords.append(FunCoord(g, (arg,)))
        elif kind == "K":
            qcoords.append(FunCoord(g, (PointExpr.constant(draw(st.sampled_from(consts))),)))
        else:
            qcoords.append(FunCoord(fbar, (expr(names + ("z",)), arg)))
    used = {n for e in ecoords for n in e.params()}
    used.update(n for q in qcoords for a in q.args for n in a.params())
    return ParamCycle(curve, tuple(sorted(used)), tuple(ecoords), tuple(qcoords))


@given(_f101_cycles())
@settings(max_examples=150, deadline=None)
def test_scan_matches_reference_on_random_cycles(cycle):
    assert canonical_term(cycle) == _reference_canonical(cycle)


# ---------------------------------------------------------------------------
# faces against the derivation they replace


def _reference_faces(cycle):
    """`term_faces` with every face checked by `class_equation` on its own
    arguments, instead of substituting its pivot into the cycle's."""
    out = []
    for slot, q in enumerate(cycle.qcoords, start=1):
        for component, coeff in q.spec.components:
            eq = class_equation(component, q.args)
            if eq.is_const():
                if eq.const.infinity:
                    raise DegeneracyError(
                        f"cube coordinate {slot} is identically degenerate on a face"
                    )
                continue
            name = next((p for p in cycle.params if dict(eq.coeffs).get(p) in (1, -1)), None)
            if name is None:
                raise DegeneracyError(f"face equation {eq!r} has no unit pivot")
            repl = eq.solve(name)
            qcoords = [
                FunCoord(q2.spec, tuple(a.substitute(name, repl) for a in q2.args))
                for j, q2 in enumerate(cycle.qcoords, start=1)
                if j != slot
            ]
            ecoords = tuple(e.substitute(name, repl) for e in cycle.ecoords)
            params = tuple(p for p in cycle.params if p != name)
            face = ParamCycle(cycle.curve, params, ecoords, tuple(qcoords))
            for j, q2 in enumerate(face.qcoords, start=1):
                for component2, _ in q2.spec.components:
                    eq2 = class_equation(component2, q2.args)
                    if eq2.is_const() and eq2.const.infinity:
                        raise DegeneracyError(
                            f"cube coordinate {j} became identically zero or infinite"
                        )
            out.append(((-1) ** (slot - 1) * coeff, face))
    return out


def _faces_or_error(faces, cycle):
    # a record carries repr(exc), so the first error's text is what counts
    try:
        return faces(cycle)
    except (CycleError, DegeneracyError) as exc:
        return repr(exc)


@given(_f101_cycles())
@settings(max_examples=150, deadline=None)
def test_faces_match_their_derivation_afresh(cycle):
    assert _faces_or_error(term_faces, cycle) == _faces_or_error(_reference_faces, cycle)


@given(st.lists(_f101_cycles(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_boundary_adds_up_like_its_scanned_faces(cycles_):
    # the boundary adds coefficients by the winners' keys and rebuilds only
    # what survives: the same sum, in the same order, as scanning each face
    canon = [c for c, _ in map(canonical_term, cycles_) if c is not None]
    s = CycleSum([(c, k) for k, c in enumerate(canon, 1)])
    try:
        got = boundary(s)
    except (CycleError, DegeneracyError):
        return
    items = []
    for cyc, c in s.items():
        for fc, face in term_faces(cyc):
            face_canon, sign = _scan(face, {})
            if face_canon is not None:
                items.append((face_canon, c * fc * sign))
    assert list(got.items()) == list(CycleSum(items).items())


def _substitution_cases(cycle):
    """(class, pivot, replacement, arguments) for each face of the cycle and
    each class of each function slot the face keeps."""
    slots = list(enumerate(cycle.qcoords))
    for j, q in slots:
        for component, _ in q.spec.components:
            eq = class_equation(component, q.args)
            name = next((p for p in cycle.params if dict(eq.coeffs).get(p) in (1, -1)), None)
            if name is None:
                continue
            repl = eq.solve(name)
            for k, other in slots:
                if k != j:
                    for component2, _ in other.spec.components:
                        yield component2, name, repl, other.args


def _check_substituted_equations(cycle):
    # a face's class equations are the cycle's with the pivot substituted,
    # and the face's check reads off whether they vanish identically
    for component, name, repl, args in _substitution_cases(cycle):
        face_args = tuple(a.substitute(name, repl) for a in args)
        eq = class_equation(component, args)
        substituted = eq.substitute(name, repl)
        assert substituted == class_equation(component, face_args), (component, name)
        vanishes = substituted.is_const() and substituted.const.infinity
        assert eq.vanishes_with(name, repl) == vanishes, (component, name)


@given(_f101_cycles())
@settings(max_examples=150, deadline=None)
def test_substituted_face_equations_are_the_faces_own(cycle):
    _check_substituted_equations(cycle)


def test_substituted_face_equations_on_families(setup):
    # the families' F-bar coordinates have the Dsum class, which F_101's
    # two-argument F-bar normalizes away
    for seed in _orbit_seeds(setup):
        _check_substituted_equations(seed)


def test_degeneracy_texts_and_order():
    curve, g, fbar, consts = _F101
    P = consts[1]  # a pole of g
    u, v = PointExpr.param(curve, "u"), PointExpr.param(curve, "v")
    gu, fvv = FunCoord(g, (u,)), FunCoord(fbar, (v, v))
    kP = FunCoord(g, (PointExpr.constant(P),))
    vanishing = "cube coordinate 1 became identically zero or infinite"
    cases = [
        ((u,), (kP, gu), "cube coordinate 1 is identically degenerate on a face"),
        ((u,), (FunCoord(g, (u.scale(2),)),), "face equation 2u|(1,99) has no unit pivot"),
        ((u, v), (gu, fvv), vanishing),
        # the face of slot 1 meets both degeneracies: its first slot is reported
        ((u, v), (gu, kP, fvv), vanishing),
        ((u, v), (gu, fvv, kP), vanishing),
    ]
    for ecoords, qcoords, text in cases:
        params = tuple(sorted({n for e in ecoords for n in e.params()} | {"u"}))
        cycle = ParamCycle(curve, params, ecoords, qcoords)
        assert _faces_or_error(term_faces, cycle) == repr(DegeneracyError(text))
        assert _faces_or_error(_reference_faces, cycle) == repr(DegeneracyError(text))


def _floating_cases(setup):
    """Cycles whose one-parameter coordinates at 0 or 2-torsion float signs."""
    curve, gs, afix = setup
    x, y1, y2, y3 = (PointExpr.param(curve, n) for n in ("x", "y1", "y2", "y3"))
    cases = {}
    # the X shape: k fresh coordinates at infinity, then the balance coordinate
    for k, ys in ((3, [y1, y2]), (4, [y1, y2, y3])):
        for const in (ec_neg(afix[0]), CurvePoint.at_infinity(curve)):
            balance = PointExpr.make(
                curve, [("x", -1)] + [(f"y{i}", -1) for i in range(1, k)], const
            )
            qcoords = tuple(FunCoord(g, (y,)) for g, y in zip(gs, ys))
            params = ("x",) + tuple(f"y{i}" for i in range(1, k))
            cases[f"X k={k} {const.key()}"] = ParamCycle(
                curve, params, (x, *ys, balance), qcoords
            )
    # only the cube coordinates see the sum x + y, so they decide both signs
    fbar = FunCoord(FbarSpec(curve, 2), (x + y1, y1))
    cases["cube decides"] = ParamCycle(curve, ("x", "y1"), (x, y1), (fbar,))
    # nothing sees x again: x -> -x and negating its coordinate fix the term
    cases["undecided"] = ParamCycle(curve, ("x", "y1"), (x, y1), (FunCoord(gs[0], (y1,)),))
    # one parameter in two self-negating coordinates, the second settling it
    cases["shared 2y"] = ParamCycle(
        curve, ("y1",), (y1, y1.scale(2)), (FunCoord(gs[0], (y1,)),)
    )
    # a 2-torsion constant, over F_101
    curve, g, _, consts = _F101
    P, T = consts[1], consts[4]
    u, v = PointExpr.param(curve, "u"), PointExpr.param(curve, "v")
    uT, vT = u + PointExpr.constant(T), v + PointExpr.constant(T)
    balance = PointExpr.make(curve, [("u", -1), ("v", -1)], P)
    cases["2-torsion"] = ParamCycle(curve, ("u", "v"), (uT, vT, balance), (FunCoord(g, (u,)),))
    cases["shared 2-torsion"] = ParamCycle(curve, ("u",), (u, uT), (FunCoord(g, (u,)),))
    return cases


def test_floating_signs_match_reference(setup):
    cases = _floating_cases(setup)
    for label, cycle in cases.items():
        assert canonical_term(cycle) == _reference_canonical(cycle), label
    assert canonical_term(cases["undecided"]) == (None, 0)
    for label in ("X k=3 inf", "X k=4 inf", "cube decides", "2-torsion", "shared 2y"):
        assert canonical_term(cases[label])[0] is not None, label


# ---------------------------------------------------------------------------
# twin coordinates: placed one at a time, each order a prefix of its own


_H = UserFunction("h", _F101[1].divisor)  # a second unary spec on F_101


@st.composite
def _twin_cycles(draw):
    """Fresh one-parameter coordinates with one shared constant, as on the
    faces of the families: a balance coordinate over them, unary g- and
    h-coordinates reading one or two of them, and a symmetric F-bar."""
    curve, g, _, consts = _F101
    k = draw(st.integers(2, 4))
    names = draw(st.permutations(("u", "v", "w", "z")))[:k]
    const = draw(st.sampled_from(consts))
    sign = st.sampled_from((1, -1))
    ecoords = [PointExpr.make(curve, [(n, draw(sign))], const) for n in names]
    if draw(st.booleans()):
        # mostly the even balance -sum(names) - c, sometimes an uneven one
        coeff = st.sampled_from((-1, -1, -1, -1, -2, 0))
        items = [(n, draw(coeff)) for n in names]
        ecoords.append(PointExpr.make(curve, items, draw(st.sampled_from(consts))))
    qcoords = []
    for _ in range(draw(st.integers(0, k))):
        read = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        arg = PointExpr.make(curve, [(n, draw(sign)) for n in read], draw(st.sampled_from(consts)))
        qcoords.append(FunCoord(draw(st.sampled_from((g, _H))), (arg,)))
    if draw(st.booleans()):
        args = tuple(PointExpr.make(curve, [(n, -1)], const) for n in names)
        qcoords.append(FunCoord(FbarSpec(curve, k), args))
    ecoords, qcoords = draw(st.permutations(ecoords)), draw(st.permutations(qcoords))
    return ParamCycle(curve, tuple(sorted(names)), tuple(ecoords), tuple(qcoords))


@given(_twin_cycles())
@settings(max_examples=60, deadline=None)
def test_twin_cells_match_reference(cycle):
    assert canonical_term(cycle) == _reference_canonical(cycle)


def test_twin_cells_on_the_family_shape(setup):
    # X over three functions at a face y2 = p: x, y1, y3 are twins; the F-bar
    # reads them evenly, and g1 and g3 tell y1 and y3 apart from x
    curve, gs, afix = setup
    X = build_family("X", curve, gs, fixed=(afix[0],))
    faces = [f for _, f in term_faces(X) if all(q.spec != gs[1] for q in f.qcoords)]
    assert len(faces) == len(gs[1].divisor.terms)
    for face in faces:
        assert canonical_term(face) == _reference_canonical(face)


# ---------------------------------------------------------------------------
# the cube rows' sort: one stable order, and a tie reaches it with both signs


def test_equal_cube_rows_kill_the_term(setup):
    curve, gs, _ = setup
    g1, g2 = gs[:2]
    t, s = PointExpr.param(curve, "t"), PointExpr.param(curve, "s")
    # swapping the two equal cube slots is odd and fixes the term
    dead = ParamCycle(curve, ("t",), (t,), (FunCoord(g1, (t,)), FunCoord(g1, (t,))))
    assert canonical_term(dead) == (None, 0)
    assert _reference_canonical(dead) == (None, 0)
    # distinct rows; or equal only after swapping t and s, an even move
    alive = [
        ParamCycle(curve, ("t",), (t,), (FunCoord(g1, (t,)), FunCoord(g2, (t,)))),
        ParamCycle(curve, ("s", "t"), (t, s), (FunCoord(g1, (t,)), FunCoord(g1, (s,)))),
    ]
    for cycle in alive:
        assert canonical_term(cycle)[0] is not None, cycle
        assert canonical_term(cycle) == _reference_canonical(cycle)


@given(st.lists(st.integers(0, 3), max_size=6))
def test_sorted_order_is_the_first_arrangement(keys):
    arrangements = list(sorted_arrangements(keys))
    order, sign, tied = _sorted_order(keys)
    assert (order, sign) == arrangements[0]
    assert tied == (len(arrangements) > 1)


# ---------------------------------------------------------------------------
# point-class products: merged without a scan, against the scanned product


def _scanned_product(s1, s2):
    """The product of two sums the way a pair without a point class is
    multiplied: each raw concatenation scanned."""
    items = []
    for z1, c1 in s1.items():
        for z2, c2 in s2.items():
            canon, sign = _scan(_concatenate(z1, z2), {})
            if canon is not None:
                items.append((canon, c1 * c2 * sign))
    return CycleSum(items)


def _all_merged(s1, s2):
    return all(_point_product(z1, z2) is not None for z1 in s1 for z2 in s2)


def test_point_products_match_the_scan_on_chain_slot_pairs():
    # every ordered slot pair the n=2 chain's differential multiplies
    curve, gs = standard_functions(2)
    ctx = build_motive_chain(curve, gs).context
    assert ctx._products
    for (left, right), product in ctx._products.items():
        pair = CycleSum([(left, 1)]), CycleSum([(right, 1)])
        assert _all_merged(*pair)
        assert product == _scanned_product(*pair)


def test_point_products_match_the_scan_on_expansions(setup):
    # every product of the displayed boundary formulas over the test config
    curve, gs, afix = setup
    a, b2 = afix
    checked = 0
    for n in (1, 2, 3):
        ctx = FamilyContext(curve, gs[:n])
        descs = [("eta", tuple(afix[:r]), ctx.names) for r in range(3)]
        descs += [("mu", a, ctx.names), ("nu", 1, a, b2, ctx.names)]
        for desc in descs:
            for _, _, _, (left, right) in ctx.expansions(desc):
                pair = ctx.materialize(left), ctx.materialize(right)
                assert _all_merged(*pair)
                assert external_product(*pair) == _scanned_product(*pair)
                checked += 1
    assert checked > 50


@st.composite
def _point_classes(draw):
    """Constant E-coordinates only, raw: the identity and the 2-torsion
    point are their own negatives, and P, -P repeat one orbit."""
    curve, _, _, consts = _F101
    points = draw(st.lists(st.sampled_from(consts), min_size=1, max_size=2))
    return ParamCycle(curve, (), tuple(PointExpr.constant(p) for p in points), ())


@given(_point_classes(), _f101_cycles(), st.booleans())
@settings(max_examples=70, deadline=None)
def test_point_merge_matches_reference(point, cycle, point_left):
    canon, _ = canonical_term(cycle)
    assume(canon is not None)
    pair = (point, canon) if point_left else (canon, point)
    assert _point_product(*pair) == _reference_canonical(_concatenate(*pair))


def _decoration_projector(b):
    """rho^t_{b-1,1}: the transposed tabloid projector eta and nu act by."""
    return transpose_projector(YoungShape.standard((b - 1, 1), "tabloid"))


def _reference_decoration(cycle):
    return _reference_projector(CycleSum.single(cycle), _decoration_projector(cycle.b))


def _reference_projector(s, element):
    """The signed action term by term: sum of c_g * sign(g) * g(Z), each g(Z)
    canonicalized on its own."""
    items = []
    for cyc, coeff in s.items():
        for sigma, c in element.items():
            canon, sign = canonical_term(permute_ecoords(cyc, sigma))
            if canon is not None:
                items.append((canon, coeff * c * sigma.sign() * sign))
    return CycleSum(items)


def test_projector_matches_its_term_by_term_definition(setup):
    # eta and nu are the signed projector action, built copy by copy here
    curve, gs, afix = setup
    cases = []
    for n in (1, 2, 3):
        for r in (0, 1, 2):
            cases.append(("eta", build_family("X", curve, gs[:n], fixed=tuple(afix[:r]))))
        cases.append(("nu", build_family("Z", curve, gs[:n], j=n, b1=afix[0], b2=afix[1])))
    for kind, cycle in cases:
        assert decorate(kind, cycle) == _reference_decoration(cycle)


def test_canonical_form_is_a_fixed_point(setup):
    # the rebuilt minimal candidate is its own canonical form, with sign +1
    survivors = 0
    for base in _orbit_seeds(setup):
        canon, _ = canonical_term(base)
        if canon is None:
            continue
        survivors += 1
        assert canonical_term(canon) == (canon, 1)
    assert survivors > 0


def test_constant_two_torsion_ecoord_dies():
    # T = -T, so negating the coordinate maps the term to minus itself
    from ellmotive.curves import full_two_torsion
    from ellmotive.fixtures import two_torsion_curve_f101

    curve = two_torsion_curve_f101()
    T = full_two_torsion(curve)[0]
    assert canonical_term(ParamCycle(curve, (), (PointExpr.constant(T),), ())) == (None, 0)
    P = CurvePoint.affine(curve, 1, 2)  # of odd order
    canon, sign = canonical_term(ParamCycle(curve, (), (PointExpr.constant(P),), ()))
    assert canon is not None and sign in (1, -1)


def test_fn_mode_families():
    from ellmotive.fixtures import two_torsion_curve_f101

    curve = two_torsion_curve_f101()
    # an admissible function away from 0 and the 2-torsion (P has odd order)
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
    X = build_family("X", curve, [g], mode="fn")
    eta = decorate("eta", X)
    assert boundary(boundary(eta)).is_zero()
    assert eta == _reference_decoration(X)


def test_fn_mode_needs_full_two_torsion(setup):
    # y^2 + y = x^3 - x has no rational 2-torsion to build h_n on
    from ellmotive.cycles import CycleError

    curve, gs, _ = setup
    with pytest.raises(CycleError, match="2-torsion"):
        build_family("X", curve, gs[:1], mode="fn")
