"""The pure-motive label algebra for GL2.

Labels are Sym^n h^1(E)(-m).  Tensor products decompose by the GL2
Clebsch-Gordan rule, and `tensor_supports` asks whether a label occurs in
the tensor product of a list of labels: the bar suite's weight-graded
record reads it through `barcx.grading_coherent`.  The closed form is
checked against an independent character oracle (exact Laurent polynomials
in the two diagonal eigenvalues) that lives with the tests, since the
closed form is standard but the engine must not trust it unchecked.
"""

from __future__ import annotations

from .frozen import Frozen, _set
from .lincomb import LinComb


class MotiveError(ValueError):
    pass


class PureMotive(Frozen):
    """Sym^n h^1(E)(-m); Q(-1) is PureMotive(0, 1), h^1(E) is PureMotive(1, 0).
    Labels sort by (n, m)."""

    def __init__(self, n: int, m: int = 0):
        if n < 0:
            raise MotiveError("symmetric power must be >= 0")
        _set(self, "n", n)
        _set(self, "m", m)

    def _args(self) -> tuple:
        return self.n, self.m

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() < other._args()

    def render(self) -> str:
        base = f"Sym^{self.n} h1(E)" if self.n else "Q"
        if self.n == 1:
            base = "h1(E)"
        return f"{base}(-{self.m})" if self.m else base

    def __repr__(self) -> str:
        return self.render()


QQ = PureMotive(0, 0)
H1 = PureMotive(1, 0)


class MotiveSum(LinComb):
    """Multiset of pure motive labels with multiplicities, in label order."""

    __slots__ = ()

    def _init(self, coeffs, labels):
        if any(k < 0 for k in coeffs.values()):
            raise MotiveError("negative multiplicity")
        return super()._init(coeffs, labels)

    def _term_repr(self, mot, mult) -> str:
        return (f"{mult}*" if mult > 1 else "") + mot.render()


def clebsch_gordan(V: PureMotive, W: PureMotive) -> MotiveSum:
    """Sym^a(-c) (x) Sym^b(-d) = sum_{k=0}^{min(a,b)} Sym^{a+b-2k}(-(c+d+k)).

    Only two-row diagrams survive for GL2 (wedge^3 of a 2-dimensional space
    vanishes), which is what collapses Littlewood-Richardson to this ladder.
    """
    a, b = V.n, W.n
    return MotiveSum((PureMotive(a + b - 2 * k, V.m + W.m + k), 1) for k in range(min(a, b) + 1))


def tensor_supports(labels, target: PureMotive) -> bool:
    """Whether the target appears in the iterated Clebsch-Gordan expansion
    of the tensor product of the labels (Q for none)."""
    if not labels:
        return target == QQ
    support = {labels[0]}
    for mot in labels[1:]:
        support = {W for V in support for W in clebsch_gordan(V, mot)}
    return target in support
