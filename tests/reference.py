"""What the tests compare the program against, and the program itself never
reads: the GL2 character oracle with the plethysm closed form it checks and
the labels' dimension and weight, the decoration-point fixture, the signed
symmetry moves on parametric cycles (parameter renaming included) and every
sorting arrangement, the
named-class coefficient and symbolic-divisor degree, and the full pass rule
of a boundary-formula report."""

import itertools

from ellmotive.cycles import FunCoord, ParamCycle
from ellmotive.divisors import PointExpr, _parse_class
from ellmotive.fixtures import generator, multiples, rank_one_curve
from ellmotive.formulas import certifies
from ellmotive.gl2 import MotiveError, MotiveSum, PureMotive
from ellmotive.lincomb import accumulate

TATE = PureMotive(0, 1)  # Q(-1) = wedge^2 h^1(E)


# ---------------------------------------------------------------------------
# GL2 labels


def dimension(mot: PureMotive) -> int:
    return mot.n + 1


def total_dimension(labels: MotiveSum) -> int:
    """The dimension of a sum of labels, counted with multiplicity."""
    return sum(dimension(mot) * k for mot, k in labels.items())


def weight(mot: PureMotive) -> int:
    """Adams weight n + 2m."""
    return mot.n + 2 * mot.m


def effective(mot: PureMotive) -> bool:
    return mot.m >= 0


def plethysm2(kind: str, V: PureMotive) -> MotiveSum:
    """Sym^2 or wedge^2 of Sym^n(-m).

    Sym^2(Sym^n) = (+)_{j >= 0, 2n-4j >= 0} Sym^{2n-4j}(-2j),
    wedge^2(Sym^n) = (+)_{j >= 0, 2n-4j-2 >= 0} Sym^{2n-4j-2}(-(2j+1));
    a twist of V shifts every term by twice that twist.
    """
    n, shift = V.n, 2 * V.m
    items = []
    if kind == "sym":
        j = 0
        while 2 * n - 4 * j >= 0:
            items.append((PureMotive(2 * n - 4 * j, 2 * j + shift), 1))
            j += 1
    elif kind == "wedge":
        j = 0
        while 2 * n - 4 * j - 2 >= 0:
            items.append((PureMotive(2 * n - 4 * j - 2, 2 * j + 1 + shift), 1))
            j += 1
    else:
        raise MotiveError(f"plethysm kind must be sym or wedge, not {kind!r}")
    return MotiveSum.of(items)


# character oracle: exact Laurent polynomials in the torus eigenvalues
#
# char(Sym^n h^1(-m)) at diag(x, y) is sum_{i=0}^{n} x^{n-i+m} y^{i+m}.
# Characters are dicts (x-exponent, y-exponent) -> int.


def character(mot: PureMotive) -> dict:
    return {(mot.n - i + mot.m, i + mot.m): 1 for i in range(mot.n + 1)}


def char_mul(c1: dict, c2: dict) -> dict:
    return accumulate(
        {},
        (
            ((a1 + a2, b1 + b2), v1 * v2)
            for (a1, b1), v1 in c1.items()
            for (a2, b2), v2 in c2.items()
        ),
    )


def char_sym2(c: dict) -> dict:
    """Character of Sym^2: (chi(g)^2 + chi(g^2)) / 2, exactly."""
    sq = char_mul(c, c)
    frob = {(2 * a, 2 * b): v for (a, b), v in c.items()}
    return {k: (sq.get(k, 0) + frob.get(k, 0)) // 2 for k in set(sq) | set(frob)}


def char_wedge2(c: dict) -> dict:
    sq = char_mul(c, c)
    frob = {(2 * a, 2 * b): v for (a, b), v in c.items()}
    return {k: v for k in set(sq) | set(frob) if (v := (sq.get(k, 0) - frob.get(k, 0)) // 2) != 0}


def decompose_character(c: dict) -> MotiveSum:
    """Strip highest weights greedily; exact, raises if not a genuine character."""
    c = {k: v for k, v in c.items() if v != 0}
    items = []
    while c:
        (a, b) = max(c, key=lambda k: (k[0] - k[1], -k[1]))
        mult = c[(a, b)]
        if mult < 0 or a - b < 0:
            raise MotiveError("not a polynomial GL2 character")
        mot = PureMotive(a - b, b)
        items.append((mot, mult))
        c = accumulate(c, character(mot).items(), -mult)
    return MotiveSum.of(items)


def clebsch_gordan_by_characters(V: PureMotive, W: PureMotive) -> MotiveSum:
    return decompose_character(char_mul(character(V), character(W)))


def plethysm2_by_characters(kind: str, V: PureMotive) -> MotiveSum:
    c = character(V)
    return decompose_character(char_sym2(c) if kind == "sym" else char_wedge2(c))


# ---------------------------------------------------------------------------
# fixtures and cycle moves


def fixed_points(count: int = 2):
    """Decoration points for the eta families over the rational fixture,
    disjoint from the supports of `fixtures.standard_functions`."""
    return multiples(generator(rank_one_curve()), [13, 14][:count])


def codim(cycle: ParamCycle) -> int:
    return cycle.b + cycle.c - cycle.dim


def permute_ecoords(cycle: ParamCycle, sigma) -> ParamCycle:
    inv = sigma.inverse()
    ecoords = tuple(cycle.ecoords[inv(i) - 1] for i in range(1, cycle.b + 1))
    return ParamCycle(cycle.curve, cycle.params, ecoords, cycle.qcoords)


def negate_ecoord(cycle: ParamCycle, i: int) -> ParamCycle:
    ecoords = list(cycle.ecoords)
    ecoords[i - 1] = -ecoords[i - 1]
    return ParamCycle(cycle.curve, cycle.params, tuple(ecoords), cycle.qcoords)


def permute_qcoords(cycle: ParamCycle, sigma) -> ParamCycle:
    inv = sigma.inverse()
    qcoords = tuple(cycle.qcoords[inv(i) - 1] for i in range(1, cycle.c + 1))
    return ParamCycle(cycle.curve, cycle.params, cycle.ecoords, qcoords)


def rename_params(cycle: ParamCycle, mapping: dict) -> ParamCycle:
    """The cycle with each parameter p renamed mapping.get(p, p)."""

    def rename(e: PointExpr) -> PointExpr:
        return PointExpr.make(e.curve, [(mapping.get(n, n), c) for n, c in e.coeffs], e.const)

    ecoords = tuple(rename(e) for e in cycle.ecoords)
    qcoords = tuple(FunCoord(q.spec, tuple(rename(a) for a in q.args)) for q in cycle.qcoords)
    return ParamCycle(cycle.curve, tuple(mapping.get(p, p) for p in cycle.params), ecoords, qcoords)


def sorted_arrangements(keys):
    """Every order of the positions that sorts the keys, equal keys permuted
    in all ways, each with its parity; the stable order comes first."""
    blocks = []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if blocks and keys[blocks[-1][-1]] == keys[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    for choice in itertools.product(*[list(itertools.permutations(block)) for block in blocks]):
        arrangement = [i for block in choice for i in block]
        inversions = sum(i > j for i, j in itertools.combinations(arrangement, 2))
        yield arrangement, -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# divisors


def class_coeff(cls, named):
    """The coefficient in a class on E^n of the class given by its name,
    e.g. ("Delta", 1, 2) or ("D", 1, p)."""
    return cls.coeff(_parse_class(cls.curve, cls.n, named))


def symbolic_degree(sym) -> int:
    """The degree of a divisor of point expressions."""
    return sum(sym.values())


# ---------------------------------------------------------------------------
# boundary formulas


def formulas_pass(rep) -> bool:
    """Every record of one (n, r) passes: d(eta) and d(mu) match completely,
    d(nu) is zero or discharged, and both kill cycles certify their family."""
    killers_ok = all(map(certifies, rep.killers.values()))
    return rep.eta.complete and rep.mu.complete and rep.nu_passed and killers_ok
