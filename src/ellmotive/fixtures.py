"""Named curve and function fixtures used by the test suites and CLI defaults.

The rational fixture is the rank-1 curve y^2 + y = x^3 - x with generator
(0, 0); multiples of the generator supply as many distinct non-torsion points
as needed, so admissible function tuples with pairwise disjoint supports come
for free.  Full 2-torsion (needed by the h_n recipes) only exists over the
prime-field fixtures.
"""

from __future__ import annotations

from .curves import CurvePoint, EllipticCurve, ec_scalar_mul
from .cycles import UserFunction
from .divisors import FormalDivisor
from .fields import PrimeField, RationalField


def rank_one_curve() -> EllipticCurve:
    """y^2 + y = x^3 - x over Q; rank 1, no rational 2-torsion."""
    return EllipticCurve.from_coeffs(RationalField(), 0, 0, 1, -1, 0)


def generator(curve=None) -> CurvePoint:
    curve = curve or rank_one_curve()
    return CurvePoint.affine(curve, 0, 0)


def multiples(P, ks):
    return [ec_scalar_mul(k, P) for k in ks]


def standard_function(curve, P, ks, name) -> UserFunction:
    """Divisor (k1 P) + (k2 P) - (k3 P) - (k4 P) with k1 + k2 = k3 + k4."""
    k1, k2, k3, k4 = ks
    if k1 + k2 != k3 + k4:
        raise ValueError("multiples must balance for a principal divisor")
    A, B, C, D = multiples(P, ks)
    return UserFunction(name, FormalDivisor.of(curve, [(A, 1), (B, 1), (C, -1), (D, -1)]))


def standard_functions(count: int = 3):
    """Admissible tuple over the rational fixture; supports pairwise disjoint,
    away from the identity and torsion."""
    curve = rank_one_curve()
    P = generator(curve)
    blocks = [(2, 3, 1, 4), (5, 8, 6, 7), (9, 12, 10, 11)]
    if count > len(blocks):
        raise ValueError("no more prepared fixture blocks")
    return curve, [
        standard_function(curve, P, blocks[i], f"g{i + 1}") for i in range(count)
    ]


def two_torsion_curve_f11() -> EllipticCurve:
    """y^2 = x(x-2)(x-5) over F_11, with full rational 2-torsion."""
    return EllipticCurve.from_coeffs(PrimeField(11), 0, -7, 0, 10, 0)


def two_torsion_curve_f101() -> EllipticCurve:
    """y^2 = x(x-2)(x-5) over F_101."""
    return EllipticCurve.from_coeffs(PrimeField(101), 0, -7, 0, 10, 0)
