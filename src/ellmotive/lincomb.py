"""Exact sparse linear combinations: the one formal-sum type.

Every object the verifier checks is a finite exact linear combination:
cycle classes, bar words, divisors, group-algebra elements, motive
multiplicities.  `LinComb` is that combination, an immutable
{basis: coefficient} mapping that never stores a zero.  Coefficients follow
Python's own number rule: they keep the exact type they arrive with (int or
`Fraction`), and an absent basis reads as the int 0.  Nothing here divides,
so integer sums stay ints; a caller that divides builds the exact quotient
as a `Fraction` itself.  Arithmetic accumulates into a dict and never
sorts.  The sorted view `terms` is built on first read and is the only
place where anything sorts, so only output that depends on term order
(reprs, report details, first-term rules) pays for an order.

A subtype names its extra attributes (a curve, an ambient exponent, motive
tags) in `labels`, which are also its `__slots__`.  Equal combinations have
equal labels too.  Arithmetic keeps the left operand's labels and requires
the right operand's to agree.  A subtype
that normalizes or checks its bases on entry does so in its `of`
constructor; the plain constructor takes (basis, coefficient) pairs as
they are.
"""

from __future__ import annotations

from collections.abc import Mapping


def accumulate(acc: dict, items, factor=1) -> dict:
    """Add factor * c to acc[b] for every (b, c) in items, deleting the
    entries that cancel, so acc never holds a zero.  Returns acc."""
    get = acc.get
    scaled = factor != 1
    for basis, coeff in items:
        coeff = get(basis, 0) + (factor * coeff if scaled else coeff)
        if coeff:
            acc[basis] = coeff
        else:
            acc.pop(basis, None)
    return acc


class LinComb(Mapping):
    """An exact formal sum: basis -> nonzero coefficient, immutable."""

    __slots__ = ("_coeffs", "_terms")
    labels = ()
    error = ValueError  # raised when labels disagree

    def __init__(self, items=(), *labels):
        self._init(accumulate({}, items), labels)

    def _init(self, coeffs: dict, labels):
        set_ = object.__setattr__
        set_(self, "_coeffs", coeffs)
        set_(self, "_terms", None)
        for name, value in zip(self.labels, labels, strict=True):
            set_(self, name, value)
        return self

    def _like(self, coeffs: dict, labels=None):
        """A combination of self's type over coeffs (which it takes over),
        with self's labels unless others are given."""
        if labels is None:
            labels = [getattr(self, name) for name in self.labels]
        return object.__new__(type(self))._init(coeffs, labels)

    @classmethod
    def of(cls, items=()):
        return cls(items)

    @staticmethod
    def sort_key(basis):
        return basis

    @property
    def terms(self) -> tuple:
        """The (basis, coefficient) pairs sorted by `sort_key`."""
        terms = self._terms
        if terms is None:
            key = self.sort_key
            terms = tuple(sorted(self._coeffs.items(), key=lambda t: key(t[0])))
            object.__setattr__(self, "_terms", terms)
        return terms

    # read-only mapping ---------------------------------------------------

    def __getitem__(self, basis):
        return self._coeffs[basis]

    def __iter__(self):
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __contains__(self, basis) -> bool:
        return basis in self._coeffs

    def items(self):
        return self._coeffs.items()

    def values(self):
        return self._coeffs.values()

    def coeff(self, basis):
        return self._coeffs.get(basis, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    # arithmetic ----------------------------------------------------------

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        for name in self.labels:
            if getattr(other, name) != getattr(self, name):
                raise self.error(f"{type(self).__name__} {name} mismatch")

    def __add__(self, other):
        self._check(other)
        return self._like(accumulate(dict(self._coeffs), other.items()))

    def __sub__(self, other):
        self._check(other)
        return self._like(accumulate(dict(self._coeffs), other.items(), -1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        if not k:
            return self._like({})
        return self._like({b: c * k for b, c in self._coeffs.items()})

    # value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return (
            type(other) is type(self)
            and other._coeffs == self._coeffs
            and all(getattr(other, name) == getattr(self, name) for name in self.labels)
        )

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        labels = [getattr(self, name) for name in self.labels]
        return type(self), (tuple(self._coeffs.items()), *labels)

    def _term_repr(self, basis, coeff) -> str:
        return f"{coeff}*{basis!r}"

    def __repr__(self) -> str:
        return " + ".join(self._term_repr(b, c) for b, c in self.terms) or "0"
