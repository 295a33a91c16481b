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

from fractions import Fraction

from .frozen import Frozen, _set


class FieldError(ValueError):
    """Raised for malformed field data (bad modulus, division by zero...)."""


# Miller-Rabin on the primes up to 37 decides primality below _PRIME_BOUND,
# the least composite that passes all of them (Sorenson and Webster 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def _is_prime(p: int) -> bool:
    """Whether p is prime, for p below `_PRIME_BOUND`."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField(Frozen):
    """The field Q, with elements represented as Fraction."""

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def reduce(self, a):
        return a

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero in Q")
        return Fraction(a, b)

    def key(self, a) -> str:
        return str(a)

    def __str__(self) -> str:
        return "rational"


class PrimeField(Frozen):
    """The field F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise FieldError(
                f"modulus {p} is too large: primality is decided below {_PRIME_BOUND}"
            )
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            # 2-torsion solving divides by 2; char 2 is out of scope.
            raise FieldError("characteristic 2 is not supported")
        _set(self, "p", p)

    def _args(self) -> tuple:
        return (self.p,)

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(self.coerce(value.numerator), self.coerce(value.denominator))
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
