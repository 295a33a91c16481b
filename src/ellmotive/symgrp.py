"""Exact group-algebra arithmetic over the symmetric group.

Permutations use one-line notation on {1..b}; composition is right-to-left,
so (sigma * tau)(x) = sigma(tau(x)): tau acts first.  Group-algebra elements
are formal sums of permutations with integer coefficients, so sums and
products of Young symmetrizers stay plain ints.  Young symmetrizers are
stored unnormalized (the raw sums of group elements); the quasi-idempotency
e * e = (b!/dim) e is checked by scaling with the integer eigenvalue, never
by dividing.

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
from dataclasses import dataclass
from math import factorial

from .lincomb import LinComb


class GroupAlgebraError(ValueError):
    """Structural errors: degree mismatch, malformed shapes, bad mode."""


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[i-1] is the image of i."""

    images: tuple

    @staticmethod
    def identity(b: int) -> "Permutation":
        return Permutation(tuple(range(1, b + 1)))

    @staticmethod
    def transposition(b: int, i: int, j: int) -> "Permutation":
        images = list(range(1, b + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def from_cycle(b: int, cycle) -> "Permutation":
        images = list(range(1, b + 1))
        for k, x in enumerate(cycle):
            images[x - 1] = cycle[(k + 1) % len(cycle)]
        return Permutation(tuple(images))

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise GroupAlgebraError(f"{self.images} is not a permutation")

    @staticmethod
    def _trusted(images: tuple) -> "Permutation":
        """A permutation from images known to be one (a composition of
        permutations), without the bijection check."""
        perm = object.__new__(Permutation)
        object.__setattr__(perm, "images", images)
        return perm

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # right-to-left: apply other first
        if self.degree != other.degree:
            raise GroupAlgebraError("degree mismatch in composition")
        return Permutation(tuple(self(other(x)) for x in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for x in range(1, self.degree + 1):
            images[self(x) - 1] = x
        return Permutation(tuple(images))

    def transposition_count(self) -> int:
        """|sigma|: size of a minimal decomposition into transpositions."""
        seen = set()
        count = 0
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            length = 0
            x = start
            while x not in seen:
                seen.add(x)
                x = self(x)
                length += 1
            count += length - 1
        return count

    def sign(self) -> int:
        return -1 if self.transposition_count() % 2 else 1

    def __repr__(self) -> str:
        return "".join(str(i) for i in self.images) if self.degree <= 9 else str(self.images)


def _images(perm: Permutation) -> tuple:
    return perm.images


class GroupAlgebraElement(LinComb):
    """Formal sum of permutations of {1..degree}; int coefficients stay ints."""

    __slots__ = labels = ("degree",)
    sort_key = staticmethod(_images)
    error = GroupAlgebraError

    @classmethod
    def of(cls, degree: int, items) -> "GroupAlgebraElement":
        return cls(_of_degree(degree, items), degree)

    @staticmethod
    def unit(degree: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement.of(degree, [(Permutation.identity(degree), 1)])

    def __mul__(self, other):
        self._check(other)
        acc = {}
        for p1, c1 in self.items():
            images = p1.images
            for p2, c2 in other.items():
                # (p1 * p2)(x) = p1(p2(x))
                key = tuple([images[x - 1] for x in p2.images])
                acc[key] = acc.get(key, 0) + c1 * c2
        trusted = Permutation._trusted
        return self._like({trusted(k): c for k, c in acc.items() if c})

    def _term_repr(self, perm, coeff) -> str:
        return f"{coeff}*[{perm!r}]"


def _of_degree(degree: int, items):
    for perm, coeff in items:
        if perm.degree != degree:
            raise GroupAlgebraError("permutation degree mismatch")
        yield perm, coeff


def right_act(vector: GroupAlgebraElement, sigma: Permutation):
    """Right action on formal vectors: v . sigma = sgn(sigma) * (sigma^{-1} v).

    Signed by the sign character, this is a genuine right action, so acting
    twice via an element p equals acting once via p*p.
    """
    left = GroupAlgebraElement.of(vector.degree, [(sigma.inverse(), sigma.sign())])
    return left * vector


def right_act_element(vector, element: GroupAlgebraElement):
    """sum_g c_g * (v . g), one accumulation."""
    acted = (
        (p, c * d) for sigma, c in element.items() for p, d in right_act(vector, sigma).items()
    )
    return GroupAlgebraElement.of(vector.degree, acted)


# ---------------------------------------------------------------------------
# Young shapes, symmetrizers, tabloid projectors


@dataclass(frozen=True)
class YoungShape:
    """A filled Young diagram, flagged as tableau or tabloid.

    rows are weakly decreasing lengths; filling is a bijection of {1..b} onto
    the cells, given row by row.
    """

    rows: tuple
    filling: tuple  # tuple of tuples, matching rows
    mode: str = "tableau"  # "tableau" | "tabloid"

    @staticmethod
    def standard(rows, mode: str = "tableau") -> "YoungShape":
        """Row-major filling 1, 2, ..., b."""
        filling = []
        k = 1
        for r in rows:
            filling.append(tuple(range(k, k + r)))
            k += r
        return YoungShape(tuple(rows), tuple(filling), mode)

    def __post_init__(self):
        if self.mode not in ("tableau", "tabloid"):
            raise GroupAlgebraError(f"bad mode {self.mode!r}")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise GroupAlgebraError("row lengths must be weakly decreasing")
        if tuple(len(r) for r in self.filling) != self.rows:
            raise GroupAlgebraError("filling does not match the shape")
        cells = [x for row in self.filling for x in row]
        if sorted(cells) != list(range(1, len(cells) + 1)):
            raise GroupAlgebraError("filling is not a bijection onto the cells")

    @property
    def size(self) -> int:
        return sum(self.rows)

    def columns(self):
        cols = []
        for c in range(self.rows[0] if self.rows else 0):
            cols.append(tuple(row[c] for row in self.filling if len(row) > c))
        return cols

    def transpose(self) -> "YoungShape":
        """Flip about the diagonal, keeping the inscribed entries."""
        cols = tuple(self.columns())
        return YoungShape(tuple(len(c) for c in cols), cols, self.mode)

    def __repr__(self) -> str:
        body = "/".join(",".join(str(x) for x in row) for row in self.filling)
        return f"{self.mode}[{body}]"


def _subgroup_sum(b: int, blocks, signed: bool) -> GroupAlgebraElement:
    """Sum over the Young subgroup preserving each block, optionally signed."""
    items = []
    for parts in itertools.product(*[itertools.permutations(block) for block in blocks]):
        images = list(range(1, b + 1))
        for block, perm in zip(blocks, parts):
            for src, dst in zip(block, perm):
                images[src - 1] = dst
        sigma = Permutation(tuple(images))
        items.append((sigma, sigma.sign() if signed else 1))
    return GroupAlgebraElement.of(b, items)


def row_sum(shape: YoungShape) -> GroupAlgebraElement:
    """c_T = sum over permutations preserving each row."""
    return _subgroup_sum(shape.size, shape.filling, signed=False)


def signed_column_sum(shape: YoungShape) -> GroupAlgebraElement:
    """d_T = sum of sgn(h) h over permutations preserving each column."""
    return _subgroup_sum(shape.size, shape.columns(), signed=True)


def young_symmetrizer(shape: YoungShape) -> GroupAlgebraElement:
    """c_T * d_T for a tableau."""
    if shape.mode != "tableau":
        raise GroupAlgebraError("young_symmetrizer needs tableau mode")
    return row_sum(shape) * signed_column_sum(shape)


def tabloid_row_projector(shape: YoungShape) -> GroupAlgebraElement:
    """c_T alone, for a tabloid."""
    if shape.mode != "tabloid":
        raise GroupAlgebraError("tabloid_row_projector needs tabloid mode")
    return row_sum(shape)


def transpose_projector(shape: YoungShape) -> GroupAlgebraElement:
    """The projector of the diagonal-flipped filling.

    Tableau -> symmetrizer of the flipped tableau; tabloid -> row projector
    of the flipped shape (the row tabloid of the transposed shape).
    """
    flipped = shape.transpose()
    if shape.mode == "tableau":
        return young_symmetrizer(flipped)
    return tabloid_row_projector(flipped)


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
            results.append(YoungShape(rows, tuple(tuple(r) for r in grid), "tableau"))
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


def signed_permutation(signs, perm: Permutation) -> Permutation:
    """(signs, perm) in G_c as a permutation of the signed points, i for +e_i
    and i + c for -e_i.  (s, sigma) sends +e_i to s_sigma(i) e_sigma(i),
    which is the semidirect law (s, sigma)(t, tau) = (s sigma(t), sigma tau)
    with sigma(t)_i = t_sigma^-1(i), carried injectively into Sigma_2c."""
    c = perm.degree
    negated = [signs[j - 1] == -1 for j in perm.images]
    plus = tuple(j + c if neg else j for j, neg in zip(perm.images, negated))
    minus = tuple(j if neg else j + c for j, neg in zip(perm.images, negated))
    return Permutation(plus + minus)


def alt_signed_group(c: int) -> GroupAlgebraElement:
    """Alt over G_c in the group algebra of Sigma_2c: the sum of
    sgn(sigma) * prod(s) * (s, sigma) over its 2^c c! elements."""
    items = []
    for images in itertools.permutations(range(1, c + 1)):
        perm = Permutation(images)
        for signs in itertools.product((1, -1), repeat=c):
            items.append((signed_permutation(signs, perm), perm.sign() * (-1) ** signs.count(-1)))
    return GroupAlgebraElement.of(2 * c, items)


def sign_convention_table():
    """Both readings of the action sign on sample permutations, for reports:
    "parity" is the sign character (-1)^{|sigma|} that `right_act` uses,
    "parity-plus-one" the literal (-1)^{|sigma|+1}; the samples live in S_4."""
    samples = [
        ("identity", Permutation.identity(4)),
        ("transposition (1 2)", Permutation.transposition(4, 1, 2)),
        ("3-cycle (1 2 3)", Permutation.from_cycle(4, (1, 2, 3))),
        ("4-cycle (1 2 3 4)", Permutation.from_cycle(4, (1, 2, 3, 4))),
    ]
    rows = []
    for name, sigma in samples:
        rows.append(
            {
                "permutation": name,
                "transposition_count": sigma.transposition_count(),
                "parity": sigma.sign(),
                "parity-plus-one": -sigma.sign(),
            }
        )
    return rows
