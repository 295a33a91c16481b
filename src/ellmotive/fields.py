"""Exact base fields: the rationals and prime fields F_p.

Every scalar in the engine lives in one of these two fields; there is no
floating point anywhere.  Rational values are `fractions.Fraction` (always in
lowest terms with positive denominator), prime-field values are ints in
[0, p).  Elements are plain numbers and Python's operators do the arithmetic;
a field object only coerces input into the field, reduces a result (the
identity on Q, `% p` on F_p), divides (raising FieldError on 0) and keys an
element for serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    """Raised for malformed field data (bad modulus, division by zero...)."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RationalField:
    """The field Q, with elements represented as Fraction."""

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def reduce(self, a):
        return a

    def div(self, a, b):
        b = self.coerce(b)  # a Fraction divisor: never int / int
        if b == 0:
            raise FieldError("division by zero in Q")
        return a / b

    def key(self, a) -> str:
        return str(a)

    def __str__(self) -> str:
        return "rational"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for an odd prime p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if self.p == 2:
            # 2-torsion solving divides by 2; char 2 is out of scope.
            raise FieldError("characteristic 2 is not supported")

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(self.coerce(value.numerator), self.coerce(value.denominator))
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    def reduce(self, a):
        return a % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise FieldError(f"division by zero in F_{self.p}")
        return (a * pow(b, -1, self.p)) % self.p

    def key(self, a) -> str:
        return str(a % self.p)

    def elements(self):
        return range(self.p)

    def __str__(self) -> str:
        return f"prime:{self.p}"


def field_from_tag(tag: str):
    """Parse a field tag as used in config files: "rational" or "prime:<p>"."""
    if tag == "rational":
        return RationalField()
    if tag.startswith("prime:"):
        return PrimeField(int(tag.split(":", 1)[1]))
    raise FieldError(f"unknown field tag {tag!r}")
