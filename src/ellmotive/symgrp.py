"""Exact group-algebra arithmetic over the symmetric group.

A permutation of {1..b} is its one-line image tuple: sigma[i - 1] is the
image of i.  Composition is right-to-left, so (sigma * tau)(x) =
sigma(tau(x)): tau acts first, and on image tuples the composition is
tuple(sigma[t - 1] for t in tau).  Group-algebra elements are formal sums of
image tuples with integer coefficients, in Python's tuple order, so sums and
products of Young symmetrizers stay plain ints.  Young symmetrizers are
stored unnormalized (the raw sums of group elements); the quasi-idempotency
e * e = (b!/dim) e is checked by scaling with the integer eigenvalue, never
by dividing.

A filled Young shape is its tuple of rows of entries, ((1, 2), (3,)) for the
standard filling of the shape (2, 1): row lengths weakly decrease and the
entries are 1..b.  Its projector as a tableau is `young_symmetrizer`, as a
tabloid `row_sum`; the transposed projector is the same function of
`transpose(shape)`.

The right action of a permutation on cycle-valued vectors carries a sign.
The displayed formula admits two readings of that sign, (-1)^{|sigma|} (the
sign character) and (-1)^{|sigma|+1}.  Only the sign-character reading is
multiplicative, so `right_act` uses it; `sign_convention_table` lists both
so that reports surface the mismatch rather than silently resolve it.

The signed group G_c = (Z/2Z)^c x| Sigma_c permutes the signed basis
+-e_1..+-e_c, so its alternating element is a `GroupAlgebraElement` of
degree 2c and multiplies like every projector.
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import itemgetter

from .lincomb import LinComb


class GroupAlgebraError(ValueError):
    """Raised when elements or permutations of different degrees are combined."""


def _inverse(sigma: tuple) -> tuple:
    images = [0] * len(sigma)
    for x, y in enumerate(sigma, 1):
        images[y - 1] = x
    return tuple(images)


def _transposition_count(sigma: tuple) -> int:
    """|sigma|: size of a minimal decomposition into transpositions, the
    degree minus the number of cycles."""
    seen = set()
    cycles = 0
    for start in sigma:
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = sigma[x - 1]
    return len(sigma) - cycles


def _sign(sigma: tuple) -> int:
    return -1 if _transposition_count(sigma) % 2 else 1


class GroupAlgebraElement(LinComb):
    """Formal sum of permutations of {1..degree}; int coefficients stay ints."""

    __slots__ = labels = ("degree",)
    error = GroupAlgebraError

    @classmethod
    def of(cls, degree: int, items) -> "GroupAlgebraElement":
        return cls(_of_degree(degree, items), degree)

    @staticmethod
    def unit(degree: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement.of(degree, [(tuple(range(1, degree + 1)), 1)])

    def __mul__(self, other):
        self._check(other)
        # (p1 * p2)(x) = p1(p2(x)): one getter per p2 picks p1's images at
        # p2's; below degree 2 the only permutation is the identity (and a
        # one-index getter would return a scalar)
        if self.degree < 2:
            rights = [(lambda images: images, c2) for _, c2 in other.items()]
        else:
            rights = [(itemgetter(*[x - 1 for x in p2]), c2) for p2, c2 in other.items()]
        acc = {}
        for p1, c1 in self.items():
            for pick, c2 in rights:
                key = pick(p1)
                acc[key] = acc.get(key, 0) + c1 * c2
        return self._like({k: c for k, c in acc.items() if c})

    def _term_repr(self, perm, coeff) -> str:
        shown = "".join(map(str, perm)) if len(perm) <= 9 else str(perm)
        return f"{coeff}*[{shown}]"


def _of_degree(degree: int, items):
    for perm, coeff in items:
        if len(perm) != degree:
            raise GroupAlgebraError("permutation degree mismatch")
        yield perm, coeff


def right_act(vector: GroupAlgebraElement, element: GroupAlgebraElement):
    """Right action on formal vectors: v . sigma = sgn(sigma) * (sigma^{-1} v),
    extended linearly, so v . p is one product: the signed inverse
    sum c_sigma sgn(sigma) sigma^{-1} of p times v.

    Signed by the sign character, this is a genuine right action, so acting
    twice via an element p equals acting once via p*p.
    """
    signed_inverse = GroupAlgebraElement.of(
        element.degree, [(_inverse(sigma), c * _sign(sigma)) for sigma, c in element.items()]
    )
    return signed_inverse * vector


# ---------------------------------------------------------------------------
# Young shapes and their projectors


def standard_shape(rows) -> tuple:
    """The shape with the given row lengths filled row by row with 1..b."""
    shape = []
    k = 1
    for r in rows:
        shape.append(tuple(range(k, k + r)))
        k += r
    return tuple(shape)


def transpose(shape) -> tuple:
    """Flip about the diagonal, keeping the inscribed entries: the columns."""
    return tuple(
        tuple(x for x in column if x is not None) for column in itertools.zip_longest(*shape)
    )


def _subgroup_sum(blocks, signed: bool) -> GroupAlgebraElement:
    """Sum over the Young subgroup preserving each block (the blocks
    partition 1..b), optionally signed."""
    b = sum(map(len, blocks))
    items = []
    for parts in itertools.product(*[itertools.permutations(block) for block in blocks]):
        images = list(range(1, b + 1))
        for block, perm in zip(blocks, parts):
            for src, dst in zip(block, perm):
                images[src - 1] = dst
        sigma = tuple(images)
        items.append((sigma, _sign(sigma) if signed else 1))
    return GroupAlgebraElement.of(b, items)


def row_sum(shape) -> GroupAlgebraElement:
    """c_T = sum over permutations preserving each row: the projector of a
    tabloid."""
    return _subgroup_sum(shape, signed=False)


def signed_column_sum(shape) -> GroupAlgebraElement:
    """d_T = sum of sgn(h) h over permutations preserving each column."""
    return _subgroup_sum(transpose(shape), signed=True)


def young_symmetrizer(shape) -> GroupAlgebraElement:
    """c_T * d_T: the projector of a tableau."""
    return row_sum(shape) * signed_column_sum(shape)


def hook_length_dimension(rows) -> int:
    """dim of the irreducible S^lambda via the hook length formula."""
    rows = tuple(rows)
    b = sum(rows)
    cols = [sum(1 for r in rows if r > c) for c in range(rows[0] if rows else 0)]
    prod = 1
    for i, r in enumerate(rows):
        for j in range(r):
            prod *= (r - j) + (cols[j] - i) - 1
    return factorial(b) // prod


def standard_tableaux(rows):
    """All standard Young tableaux of the given shape (entries increase
    along rows and down columns)."""
    rows = tuple(rows)
    b = sum(rows)
    results = []

    def place(k, grid):
        if k > b:
            results.append(tuple(tuple(r) for r in grid))
            return
        for i, r in enumerate(rows):
            j = len(grid[i])
            if j < r and (i == 0 or len(grid[i - 1]) > j):
                grid[i].append(k)
                place(k + 1, grid)
                grid[i].pop()

    place(1, [[] for _ in rows])
    return results


def partitions(b: int):
    """All partitions of b, largest part first."""
    if b == 0:
        yield ()
        return
    for first in range(b, 0, -1):
        for rest in partitions(b - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


# ---------------------------------------------------------------------------
# the signed group G_c = (Z/2Z)^c x| Sigma_c inside Sigma_2c


def signed_permutation(signs, perm: tuple) -> tuple:
    """(signs, perm) in G_c as a permutation of the signed points, i for +e_i
    and i + c for -e_i.  (s, sigma) sends +e_i to s_sigma(i) e_sigma(i),
    which is the semidirect law (s, sigma)(t, tau) = (s sigma(t), sigma tau)
    with sigma(t)_i = t_sigma^-1(i), carried injectively into Sigma_2c."""
    c = len(perm)
    negated = [signs[j - 1] == -1 for j in perm]
    plus = tuple(j + c if neg else j for j, neg in zip(perm, negated))
    minus = tuple(j if neg else j + c for j, neg in zip(perm, negated))
    return plus + minus


def alt_signed_group(c: int) -> GroupAlgebraElement:
    """Alt over G_c in the group algebra of Sigma_2c: the sum of
    sgn(sigma) * prod(s) * (s, sigma) over its 2^c c! elements."""
    items = []
    for perm in itertools.permutations(range(1, c + 1)):
        for signs in itertools.product((1, -1), repeat=c):
            items.append((signed_permutation(signs, perm), _sign(perm) * (-1) ** signs.count(-1)))
    return GroupAlgebraElement.of(2 * c, items)


def sign_convention_table():
    """Both readings of the action sign on sample permutations, for reports:
    "parity" is the sign character (-1)^{|sigma|} that `right_act` uses,
    "parity-plus-one" the literal (-1)^{|sigma|+1}; the samples live in S_4."""
    samples = [
        ("identity", (1, 2, 3, 4)),
        ("transposition (1 2)", (2, 1, 3, 4)),
        ("3-cycle (1 2 3)", (2, 3, 1, 4)),
        ("4-cycle (1 2 3 4)", (2, 3, 4, 1)),
    ]
    rows = []
    for name, sigma in samples:
        rows.append(
            {
                "permutation": name,
                "transposition_count": _transposition_count(sigma),
                "parity": _sign(sigma),
                "parity-plus-one": -_sign(sigma),
            }
        )
    return rows
