"""Seeded inputs for the three benchmark workloads.

Every workload is the CLI command plus the config file it reads; both come
from the workload seed alone.  The curve points are computed here with a
small, independent Weierstrass group law, so the program under test only
ever receives the generated config.

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``report-q``        ``ellmotive report --seed <seed>`` on the built-in
                      rank-1 fixture y^2 + y = x^3 - x over Q.
* ``boundaries-q-n3`` ``ellmotive verify boundaries`` with g1..g3 on the
                      same curve, n_max = 3, r_max = 2.
* ``motive-fp-n2``    ``ellmotive build-motive --n 2`` on the same model
                      reduced mod a prime p picked by the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

# y^2 + y = x^3 - x: the coefficients (a1, a2, a3, a4, a6), its generator
# (0, 0), and the fixture blocks (k1, k2, k3, k4) of the functions
# g_i = (k1 P) + (k2 P) - (k3 P) - (k4 P).
COEFFS = (0, 0, 1, -1, 0)
DISCRIMINANT = 37
BLOCKS = ((2, 3, 1, 4), (5, 8, 6, 7), (9, 12, 10, 11))
# the F_p workload needs P of order above this (the decoration pickers use
# multiples up to 14 P)
MIN_ORDER = 14
FIRST_PRIME = 10007
# seeds walk this many admissible primes from FIRST_PRIME, so the field
# size, and with it the cost of one field operation, stays comparable
PRIME_CHOICES = 64


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: its arguments, the config it reads (or None for
    the built-in fixture), and the record ids a correct report contains."""

    name: str
    argv: tuple
    config: dict | None
    required_ids: tuple


# ---------------------------------------------------------------------------
# independent group law on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6


class _Field:
    def __init__(self, p=None):
        self.p = p

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def div(self, a, b):
        if self.p:
            if b % self.p == 0:
                raise ZeroDivisionError("division by zero mod p")
            return a * pow(b, -1, self.p) % self.p
        return Fraction(a) / b

    def key(self, a) -> str:
        return str(self.norm(a))


def _add(F, P, Q):
    """P + Q, with None for the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, _ = COEFFS
    (x1, y1), (x2, y2) = P, Q
    if F.norm(x1 - x2) == 0:
        if F.norm(y1 + y2 + a1 * x2 + a3) == 0:
            return None
        lam = F.div(3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1, 2 * y1 + a1 * x1 + a3)
    else:
        lam = F.div(y2 - y1, x2 - x1)
    nu = y1 - lam * x1
    x3 = F.norm(lam * lam + a1 * lam - a2 - x1 - x2)
    y3 = F.norm(-(lam + a1) * x3 - nu - a3)
    return (x3, y3)


def _multiples(F, count):
    """[0, P, 2P, ..., count P] for the generator P = (0, 0)."""
    P = (F.norm(0), F.norm(0))
    out = [None]
    for _ in range(count):
        out.append(_add(F, out[-1], P))
    return out


def _functions(F, nfuncs):
    mults = _multiples(F, max(max(b) for b in BLOCKS[:nfuncs]))
    out = []
    for i, (k1, k2, k3, k4) in enumerate(BLOCKS[:nfuncs]):
        terms = [(k1, "1"), (k2, "1"), (k3, "-1"), (k4, "-1")]
        out.append(
            {
                "name": f"g{i + 1}",
                "divisor": [
                    {"point": [F.key(mults[k][0]), F.key(mults[k][1])], "coeff": c}
                    for k, c in terms
                ],
            }
        )
    return out


# ---------------------------------------------------------------------------
# the prime of motive-fp-n2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def admissible_prime(p: int) -> bool:
    """The mathematical preconditions of the F_p workload, and nothing else:
    the model is smooth mod p, (0, 0) has order above MIN_ORDER, and the
    support multiples of g1, g2 are distinct, nonzero and not 2-torsion."""
    if not _is_prime(p) or p == 2 or DISCRIMINANT % p == 0:
        return False
    F = _Field(p)
    ks = sorted({k for block in BLOCKS[:2] for k in block})
    mults = _multiples(F, max(MIN_ORDER, 2 * ks[-1]))
    if any(m is None for m in mults[1 : MIN_ORDER + 1]):
        return False
    pts = [mults[k] for k in ks]
    if any(pt is None for pt in pts) or len(set(pts)) != len(pts):
        return False
    return all(mults[2 * k] is not None for k in ks)


def pick_prime(seed: int) -> int:
    """The (seed mod PRIME_CHOICES)-th admissible prime from FIRST_PRIME."""
    want = seed % PRIME_CHOICES
    p = FIRST_PRIME
    while True:
        if admissible_prime(p):
            if want == 0:
                return p
            want -= 1
        p += 1


# ---------------------------------------------------------------------------


def _config(field_tag, F, nfuncs, n_max, seed):
    curve = dict(zip(("a1", "a2", "a3", "a4", "a6"), (str(c) for c in COEFFS)))
    curve["field"] = field_tag
    return {
        "curve": curve,
        "functions": _functions(F, nfuncs),
        "mode": "fbar",
        "bounds": {"n_max": n_max, "r_max": 2, "random_trials": 20},
        "seed": seed,
    }


def fp_config(seed: int, p: int | None = None) -> dict:
    """Config of the F_p workload: g1, g2 over F_p, p from the seed."""
    p = p or pick_prime(seed)
    return _config(f"prime:{p}", _Field(p), 2, 2, seed)


def make(name: str, seed: int) -> Workload:
    if name == "report-q":
        return Workload(
            name,
            ("report", "--seed", str(seed)),
            None,
            ("projectors:sign-display", "divisors:fn-discrepancy"),
        )
    if name == "boundaries-q-n3":
        return Workload(
            name,
            ("verify", "boundaries"),
            _config("rational", _Field(), 3, 3, seed),
            ("boundaries:admissible", "boundaries:eta-formula:n=3,r=2"),
        )
    if name == "motive-fp-n2":
        return Workload(
            name,
            ("build-motive", "--n", "2"),
            fp_config(seed),
            ("build-motive:n=2", "build-motive:witness:n=2"),
        )
    raise KeyError(name)


NAMES = ("report-q", "boundaries-q-n3", "motive-fp-n2")


def write_config(workload: Workload, workdir: str) -> list:
    """Write the workload's config under workdir; return the full CLI argv."""
    if workload.config is None:
        return list(workload.argv)
    path = os.path.join(workdir, f"{workload.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh, indent=2, sort_keys=True)
    return list(workload.argv) + ["--config", path]
