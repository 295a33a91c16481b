"""The pure-motive label algebra for GL2.

Labels are Sym^n h^1(E)(-m): dimension n+1, Adams weight n+2m, effective when
m >= 0.  Tensor products decompose by the GL2 Clebsch-Gordan rule, symmetric
and exterior squares by the classical plethysms; both closed forms are
validated against an independent character oracle (exact Laurent polynomials
in the two diagonal eigenvalues), since the closed forms are standard but the
engine must not trust them unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lincomb import LinComb, accumulate


class MotiveError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class PureMotive:
    """Sym^n h^1(E)(-m); Q(-1) is PureMotive(0, 1), h^1(E) is PureMotive(1, 0)."""

    n: int
    m: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise MotiveError("symmetric power must be >= 0")

    @property
    def dimension(self) -> int:
        return self.n + 1

    @property
    def weight(self) -> int:
        """Adams weight n + 2m."""
        return self.n + 2 * self.m

    @property
    def effective(self) -> bool:
        return self.m >= 0

    def render(self) -> str:
        base = f"Sym^{self.n} h1(E)" if self.n else "Q"
        if self.n == 1:
            base = "h1(E)"
        return f"{base}(-{self.m})" if self.m else base

    def __repr__(self) -> str:
        return self.render()


QQ = PureMotive(0, 0)
TATE = PureMotive(0, 1)  # Q(-1) = wedge^2 h^1(E)
H1 = PureMotive(1, 0)


class MotiveSum(LinComb):
    """Multiset of pure motive labels with multiplicities, in label order."""

    __slots__ = ()

    def _init(self, coeffs, labels):
        if any(k < 0 for k in coeffs.values()):
            raise MotiveError("negative multiplicity")
        return super()._init(coeffs, labels)

    def contains(self, mot: PureMotive) -> bool:
        return self.coeff(mot) > 0

    @property
    def dimension(self):
        return sum(m.dimension * k for m, k in self.items())

    def _term_repr(self, mot, mult) -> str:
        return (f"{mult}*" if mult > 1 else "") + mot.render()


def clebsch_gordan(V: PureMotive, W: PureMotive) -> MotiveSum:
    """Sym^a(-c) (x) Sym^b(-d) = sum_{k=0}^{min(a,b)} Sym^{a+b-2k}(-(c+d+k)).

    Only two-row diagrams survive for GL2 (wedge^3 of a 2-dimensional space
    vanishes), which is what collapses Littlewood-Richardson to this ladder.
    """
    a, b = V.n, W.n
    return MotiveSum.of(
        [(PureMotive(a + b - 2 * k, V.m + W.m + k), 1) for k in range(min(a, b) + 1)]
    )


def tensor_supports(labels, target: PureMotive) -> bool:
    """Whether the target appears in the iterated Clebsch-Gordan expansion
    of the tensor product of the labels (Q for none)."""
    if not labels:
        return target == QQ
    support = {labels[0]}
    for mot in labels[1:]:
        support = {W for V in support for W in clebsch_gordan(V, mot)}
    return target in support


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


# ---------------------------------------------------------------------------
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
