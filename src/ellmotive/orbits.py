"""The orbit scan behind `cycles.canonical_term`, over plain tables.

A term reaches the scan as rows of tuples: per E-coordinate its sides (the
coefficients and constant key of e and of -e), its profile and whether it
is self-negating (`_table_row`); per cube coordinate its spec key, argument
rows and symmetric classes (`cycles._cube_row`).  The scan reads only those
rows.  `_least_prefixes` places the E-coordinates one position at a
time, in sorted-profile order, keeping only the candidates least at each
position; `_resolve_cells` orders the twins the E-part left open by the
cube rows; `cycles._scan` compares what is left and rebuilds the winner.

A state is (used indices as a bitmask, sign, naming {name: (new name,
sign)}, choices ((index, flip), ..), open cells).  A floating sign (0 in the
naming) and an open cell (first position, parameters) both stand for
completions the scan has not told apart yet, so neither costs branching
until a coordinate reads it unevenly.
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
    """(sign, naming, ((index, flip), ..), open cells) of the candidates'
    least E-parts, with every naming of the parameters only cube
    coordinates see; None if the term dies already.  The table's rows are
    `_table_row`'s.

    A self-negating coordinate (one parameter, a constant that is its own
    negative) serializes alike under both flips while its parameter is
    fresh.  It is placed once, with the positive coefficient, and its
    parameter's sign floats (sign 0 in the naming; the state's sign is the
    one for +1).  The next coordinate naming the parameter fixes that sign
    by `_settle`; signs still floating after the last position take both.

    The order of twins floats the same way.  Twins are the unused
    coordinates of a position's profile when they are at least two, all
    fresh and single-parameter, with distinct parameters: they serialize
    alike in every order.  They are placed at once, in index order, as an
    open cell (first position, parameters): each order of the parameters
    over the cell's names and positions completes the state, with the sign
    of its permutation.  A later coordinate that reads the cell unevenly opens
    it into its orders (`_open_cell`); the cube rows order what is left
    (`_resolve_cells`).
    """
    used, sign, chosen, positions = _place_constants(table)
    states = [(used, sign, {}, chosen, ())]
    at, cells_open = 0, False
    while at < len(positions):
        indices = positions[at]
        if cells_open:
            states = [x for state in states for x in _read_cells(state, indices, table)]
        # the least serialization of an unused coordinate of the position's
        # profile under each state's naming, the same under every extension
        # of it, and the candidates reaching it: (state, index, flip, floats)
        least, candidates = None, []
        for state in states:
            used, _, naming, _, _ = state
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
        if len(candidates) > 1:
            twins = _place_twins(candidates, indices, table)
            if twins:  # each state takes the positions of all its twins
                at += len(candidates) // len(twins) - 1
                candidates, cells_open = twins, True
        alone = len(candidates) == 1
        kept = {}
        for (used, sign, naming, chosen, cells), i, flip, floats in candidates:
            if i is None:  # placed twins
                exts = [(naming, sign, chosen)]
            else:
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
                # same placed set, naming and cells: same completions;
                # opposite signs: zero
                key = None if alone else (used, tuple(ext.items()), cells)
                if kept.setdefault(key, (used, s2, ext, placed, cells))[1] != s2:
                    return None
        states = kept.values()
        at += 1
    # parameters only cube slots see: every order (all tie at |1|), both signs
    rest = [p for p in params if p not in next(iter(states))[2]]
    out = []
    for _, sign, naming, chosen, cells in states:
        floating = [n for n, (_, s) in naming.items() if not s]
        if not (floating or rest):
            out.append((sign, naming, chosen, cells))
            continue
        # a coefficient -1 settles a floating sign to +1, a coefficient +1 to -1
        for coeffs in itertools.product((-1, 1), repeat=len(floating)):
            settled, s, placed = _settle(naming, sign, chosen, tuple(zip(floating, coeffs)), table)
            for signs in itertools.product((1, -1), repeat=len(rest)):
                for full in _extend_naming(settled, tuple(zip(rest, signs))):
                    out.append((s, full, placed, cells))
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


def _place_twins(candidates, indices, table):
    """The candidates' states with their twins placed, or None unless every
    state's candidates are twins: the twins' parameters take the next names
    in index order, floating where self-negating, and form an open cell
    (first position, parameters in position order)."""
    by_state = {}
    for state, i, flip, floats in candidates:
        by_state.setdefault(id(state), (state, []))[1].append((i, flip, floats))
    out = []
    for (used, sign, naming, chosen, cells), group in by_state.values():
        if not 1 < len(group) == sum(not used >> i & 1 for i in indices):
            return None
        naming, start = dict(naming), len(chosen)
        for i, flip, floats in sorted(group):
            coeffs = table[i][0][flip][0]
            if len(coeffs) > 1 or coeffs[0][0] in naming:
                return None
            sign = -sign if ((used >> i).bit_count() + flip) % 2 else sign
            used |= 1 << i
            chosen += ((i, flip),)
            ((n, c),) = coeffs
            naming[n] = (f"t{len(naming)}", 0 if floats else c // abs(c))
        cell = (start, tuple(naming)[len(naming) - len(group) :])
        out.append(((used, sign, naming, chosen, cells + (cell,)), None, 0, False))
    return out


def _read_cells(state, indices, table):
    """The state, with each open cell that an unused coordinate of the
    position reads unevenly opened into its orders.  A coordinate reads a
    cell evenly when it holds none of its parameters, or all of them with
    one serialized coefficient."""
    out = [state]
    for cell in state[4]:
        for i in indices:
            vals = [state[2][n][1] * c or -abs(c) for n, c in table[i][0][0][0] if n in cell[1]]
            if vals and not state[0] >> i & 1 and (len(vals) < len(cell[1]) or len(set(vals)) > 1):
                out = [x for st in out for x in _open_cell(st, cell)]
                break
    return out


def _open_cell(state, cell):
    """Each completion of the open cell: an order of its parameters over its
    names and positions, with the sign of its permutation."""
    used, sign, naming, chosen, cells = state
    start, params = cell
    for order in itertools.permutations(range(len(params))):
        ext, placed = dict(naming), list(chosen)
        for slot, j in enumerate(order):
            ext[params[j]] = (naming[params[slot]][0], naming[params[j]][1])
            placed[start + slot] = chosen[start + j]
        s = -sign if sum(a > b for a, b in itertools.combinations(order, 2)) % 2 else sign
        yield used, s, ext, tuple(placed), tuple(c for c in cells if c != cell)


def _resolve_cells(prefix, cube):
    """The completions of a prefix's open cells that the cube rows can
    still make least.

    The sorted cube part is the function rows grouped by spec key, in key
    order, each group's serializations sorted, then the constant rows,
    which no naming changes; so the least is found group by group.  A group
    that reads none of a cell's parameters, or reads them evenly
    (`_reads_evenly`), leaves its orders tied.  A group that reads one of
    them is least with it first: a smaller name, which no other argument
    holds, makes every serialization holding it smaller (while the cell's
    names sort as their positions do, as below t10).  A cell that a group
    reads otherwise, or that no group tells apart, opens into every order
    that is left.
    """
    sign, naming, chosen, cells = prefix
    naming, chosen, left = dict(naming), list(chosen), ()
    groups = {}  # spec key -> (rows, the parameters they read)
    for row in cube:
        if row[1] is not None:
            rows, read = groups.setdefault(row[0], ([], set()))
            rows.append(row)
            read.update(n for coeffs, _ in row[1] for n, _ in coeffs)
    groups = sorted(groups.items())
    for start, params in cells:
        params, names, done = list(params), [naming[n][0] for n in params], 0
        ordered = names == sorted(names)
        for _, (rows, read) in groups:
            free = params[done:]
            if len(free) < 2:
                break
            hit = [j for j, n in enumerate(free) if n in read]
            if len(hit) == 1 and ordered:  # first, past hit[0] others
                sign = -sign if hit[0] % 2 else sign
                params.insert(done, params.pop(done + hit[0]))
                chosen.insert(start + done, chosen.pop(start + done + hit[0]))
                done += 1
            elif hit and not all(_reads_evenly(row, free, naming) for row in rows):
                break
        for n, name in zip(params, names):
            naming[n] = (name, naming[n][1])
        if len(params) - done > 1:
            left += ((start + done, tuple(params[done:])),)
    states = [(0, sign, naming, tuple(chosen), left)]
    for cell in left:
        states = [x for state in states for x in _open_cell(state, cell)]
    return [state[1:] for state in states]


def _reads_evenly(row, cell, naming) -> bool:
    """Whether every order of the cell's parameters leaves the row alike:
    one symmetric argument class holds them, each alone in one argument,
    all with one serialized coefficient and constant, and no other argument
    reads them."""
    reads = [(i, a) for i, a in enumerate(row[1]) if any(n in cell for n, _ in a[0])]
    if any(len(a[0]) > 1 for _, a in reads) or sorted(a[0][0][0] for _, a in reads) != sorted(cell):
        return False
    if len({(naming[a[0][0][0]][1] * a[0][0][1], a[1]) for _, a in reads}) > 1:
        return False
    return any({i for i, _ in reads} <= set(cls) for cls in row[2])


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


def _sorted_arrangements(keys):
    """Every order of the positions that sorts the keys, equal keys permuted
    in all ways, each with its parity."""
    blocks = []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if blocks and keys[blocks[-1][-1]] == keys[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    for choice in itertools.product(*[list(itertools.permutations(block)) for block in blocks]):
        arrangement = [i for block in choice for i in block]
        inversions = sum(i > j for i, j in itertools.combinations(arrangement, 2))
        yield arrangement, -1 if inversions % 2 else 1


# The serialization: an expression under a naming {name: (new name, sign)},
# or under its own names (naming None; `PointExpr.key`), is (sorted (new
# name, sign * coeff) pairs, constant key); parameters the naming lacks take
# the next names by |coeff| and coefficient |coeff|, as under every
# `_extend_naming` of it, and a floating sign (0) takes the negative
# coefficient, as it settles.  A
# cube coordinate is ("K", spec key, point key) or ("F", spec key, argument
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
