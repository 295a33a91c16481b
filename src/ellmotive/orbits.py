"""The orbit scan behind `cycles.canonical_term`, over plain tables.

A term reaches the scan as rows of tuples: per E-coordinate its sides (the
coefficients and constant key of e and of -e), its profile and whether it
is self-negating (`_table_row`); per cube coordinate its spec key, argument
rows and symmetric classes (`cycles._cube_row`).  The scan reads only those
rows.  `_least_prefixes` places the E-coordinates one position at a
time, in sorted-profile order, keeping only the candidates least at each
position; `cycles._least_form` sorts each survivor's cube rows once
(`_sorted_order`) and compares them, and `cycles._rebuild` renames the winner.

A state is (used indices as a bitmask, sign, naming {name: (new name,
sign)}, choices ((index, flip), ..)).  A floating sign (0 in the naming)
stands for both completions the scan has not told apart yet, so it costs
no branching until a coordinate reads it.
"""

from __future__ import annotations

import itertools

from .curves import ec_neg


def _table_row(e) -> tuple:
    """An E-coordinate's row of the scan's table: its signed sides, the
    (coefficients, constant key) of e and of -e indexed by flip (0 keeps, 1
    negates); its profile, what no symmetry changes; and whether it is
    self-negating: one parameter and a constant that is its own negative
    (0 or 2-torsion)."""
    key, neg_key = e.const.key(), ec_neg(e.const).key()
    sides = (e.coeffs, key), (tuple((n, -c) for n, c in e.coeffs), neg_key)
    orbit = min(key, neg_key)
    if not e.coeffs:
        return sides, ("c", orbit), False
    profile = ("x", tuple(sorted(abs(c) for _, c in e.coeffs)), orbit)
    return sides, profile, len(e.coeffs) == 1 and key == neg_key


def _term_table(ecoords, rows):
    """The rows of the E-coordinates (see `_table_row`), or None if the term
    dies at sight: a coordinate equal to another one or to its negative, or
    a constant one equal to its own negative, is fixed by an odd
    transposition or negation.  Rows are read from and kept in `rows`, a
    memo the caller scopes: the faces of one boundary share most of their
    coordinates."""
    table, seen = [], set()
    for e in ecoords:
        row = rows.get(e)
        if row is None:
            row = rows[e] = _table_row(e)
        sides = row[0]
        if sides[0] in seen or sides[0] == sides[1]:
            return None
        seen.update(sides)
        table.append(row)
    return table


def _least_prefixes(table, params):
    """(sign, naming, ((index, flip), ..)) of the candidates' least E-parts,
    with every naming of the parameters only cube coordinates see; None if
    the term dies already.  The table's rows are `_table_row`'s.

    A self-negating coordinate (one parameter, a constant that is its own
    negative) serializes alike under both flips while its parameter is
    fresh.  It is placed once, with the positive coefficient, and its
    parameter's sign floats (sign 0 in the naming; the state's sign is the
    one for +1).  The next coordinate naming the parameter fixes that sign
    by `_settle`; signs still floating after the last position take both.

    Twins, coordinates of one profile that serialize alike in every order
    (fresh, single-parameter, such as x and y_j on the face y_i = p of X),
    are placed one at a time like any other: each order of k twins stays a
    state of its own, up to k! prefixes, until a later coordinate or the
    cube rows tell them apart.
    """
    used, sign, chosen, positions = _place_constants(table)
    states = [(used, sign, {}, chosen)]
    for indices in positions:
        # the least serialization of an unused coordinate of the position's
        # profile under each state's naming, the same under every extension
        # of it, and the candidates reaching it: (state, index, flip, floats)
        least, candidates = None, []
        for state in states:
            used, _, naming, _ = state
            for i in indices:
                if used >> i & 1:
                    continue
                sides, _, self_negating = table[i]
                floats = self_negating and sides[0][0][0][0] not in naming
                if floats:  # the positive side stands for both; its parameter is fresh
                    ((_, c),) = sides[0][0]
                    flip = int(c < 0)
                    sers = [(flip, (((f"t{len(naming)}", abs(c)),), sides[flip][1]))]
                else:
                    sers = enumerate([_ser(coeffs, key, naming) for coeffs, key in sides])
                for flip, ser in sers:
                    if least is None or ser < least:
                        least, candidates = ser, []
                    if ser == least:
                        candidates.append((state, i, flip, floats))
        alone = len(candidates) == 1
        kept = {}
        for (used, sign, naming, chosen), i, flip, floats in candidates:
            used |= 1 << i
            sign = -sign if (used >> i + 1).bit_count() % 2 else sign
            sign = -sign if flip else sign
            coeffs = table[i][0][flip][0]
            chosen += ((i, flip),)
            if floats:  # its parameter takes the next name, with a floating sign
                ext = dict(naming)
                ext[coeffs[0][0]] = (f"t{len(naming)}", 0)
                exts = [(ext, sign, chosen)]
            else:
                exts = [
                    _settle(ext, sign, chosen, coeffs, table)
                    for ext in _extend_naming(naming, coeffs)
                ]
            alone = alone and len(exts) == 1
            for ext, s2, placed in exts:
                # same placed set and naming: same completions; opposite
                # signs: zero
                key = None if alone else (used, tuple(ext.items()))
                if kept.setdefault(key, (used, s2, ext, placed))[1] != s2:
                    return None
        states = kept.values()
    # parameters only cube slots see: every order (all tie at |1|), both signs
    rest = [p for p in params if p not in next(iter(states))[2]]
    out = []
    for _, sign, naming, chosen in states:
        floating = [n for n, (_, s) in naming.items() if not s]
        if not (floating or rest):
            out.append((sign, naming, chosen))
            continue
        # a coefficient -1 settles a floating sign to +1, a coefficient +1 to -1
        for coeffs in itertools.product((-1, 1), repeat=len(floating)):
            settled, s, placed = _settle(naming, sign, chosen, tuple(zip(floating, coeffs)), table)
            for signs in itertools.product((1, -1), repeat=len(rest)):
                for full in _extend_naming(settled, tuple(zip(rest, signs))):
                    out.append((s, full, placed))
    return out


def _place_constants(table):
    """(used indices, sign, choices, the other positions' coordinates) after
    the constant coordinates, which sort first and have distinct orbits
    (the table has no two equal or opposite coordinates): each stands at
    its orbit's key, and lands after every used index, one inversion per
    used index above it; a flip is one more sign."""
    used, sign, chosen = 0, 1, ()
    positions, by_profile = [], {}
    for profile, i in sorted([(row[1], i) for i, row in enumerate(table)]):
        if profile[0] == "x":
            positions.append(by_profile.setdefault(profile, []))
            positions[-1].append(i)
            continue
        flip = int(table[i][0][0][1] != profile[1])
        if ((used >> i).bit_count() + flip) % 2:
            sign = -sign
        used |= 1 << i
        chosen += ((i, flip),)
    return used, sign, chosen, positions


def _settle(naming, sign, chosen, coeffs, table):
    """Fix each floating sign among the coefficients so that its coefficient
    is negative: the least serialization, since the names in one expression
    are distinct.  A sign -1 negates the coordinate that floated it, the
    first placed one naming the parameter.  Returns (naming, sign, choices)."""
    for n, c in coeffs:
        name, s = naming[n]
        if s:
            continue
        naming = dict(naming)
        if c < 0:
            naming[n] = (name, 1)
            continue
        naming[n] = (name, -1)
        # table[j][0][0][0]: the coefficients of coordinate j's unflipped side
        k = next(k for k, (j, _) in enumerate(chosen) if n in dict(table[j][0][0][0]))
        j, flip = chosen[k]
        chosen = chosen[:k] + ((j, 1 - flip),) + chosen[k + 1 :]
        sign = -sign
    return naming, sign, chosen


def _extend_naming(naming: dict, coeffs):
    """Every extension of the naming {name: (new name, sign)} to the new
    parameters among the coefficients: they take the next names in order of
    |coeff|, ties in every order, each signed to a positive coefficient."""
    fresh = [t for t in coeffs if t[0] not in naming]
    if not fresh:
        return (naming,)
    fresh.sort(key=lambda t: abs(t[1]))
    if all(abs(a[1]) != abs(b[1]) for a, b in zip(fresh, fresh[1:])):
        orders = (fresh,)  # distinct |coeff|: one order
    else:
        groups = [list(g) for _, g in itertools.groupby(fresh, key=lambda t: abs(t[1]))]
        orders = (
            itertools.chain.from_iterable(choice)
            for choice in itertools.product(*map(itertools.permutations, groups))
        )
    out = []
    for order in orders:
        ext = dict(naming)
        for n, c in order:
            ext[n] = (f"t{len(ext)}", 1 if c > 0 else -1)
        out.append(ext)
    return out


def _sorted_order(keys):
    """(order, sign, tied): the stable order of the positions that sorts the
    keys, the sign of its permutation, and whether two keys are equal; then
    swapping them reaches the same sorted keys with the other sign."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    inversions = sum(i > j for i, j in itertools.combinations(order, 2))
    tied = any(keys[i] == keys[j] for i, j in zip(order, order[1:]))
    return order, -1 if inversions % 2 else 1, tied


# The serialization: an expression under a naming {name: (new name, sign)},
# or under its own names (naming None; `PointExpr.key`), is (sorted (new
# name, sign * coeff) pairs, constant key); parameters the naming lacks take
# the next names by |coeff| and coefficient |coeff|, as under every
# `_extend_naming` of it, and a floating sign (0) takes the negative
# coefficient, as it settles.  A
# constant slot (a unary function at a constant argument) is ("K", spec key,
# point key), any other cube coordinate ("F", spec key, argument
# serializations), the arguments of each symmetric class sorted.  The scan
# compares candidates by it, a cycle under its own names sorts sums by it,
# and reprs render it.


def _ser(coeffs, const_key, naming: dict = None):
    """The serialization of (coefficients, constant key) under a naming."""
    if naming is None or not coeffs:
        return coeffs, const_key
    items, fresh = [], []
    for n, c in coeffs:
        named = naming.get(n)
        if named is None:
            fresh.append(abs(c))
        else:
            items.append((named[0], named[1] * c or -abs(c)))
    if fresh:
        fresh.sort()
        items.extend((f"t{j}", c) for j, c in enumerate(fresh, len(naming)))
    items.sort()
    return tuple(items), const_key


def _cube_ser(row, naming: dict = None):
    """(serialization, argument order) of a cube row under a naming."""
    if row[1] is None:
        return row
    spec_key, args, classes = row
    sers = [_ser(coeffs, key, naming) for coeffs, key in args]
    order = list(range(len(sers)))
    for cls in classes:
        for pos, i in zip(cls, sorted(cls, key=sers.__getitem__)):
            order[pos] = i
    return ("F", spec_key, tuple(sers[i] for i in order)), order
