"""The closure kernel: closures inside a skew brace over bitmasks.

A subset is a Python-int bitmask with bit x - 1 set for element x, so the
carrier size has no limit.

There is one kernel, `_fixpoint`, and every closure runs it on a pair
table built once per structure and cached: `pair[x][y]` holds the bits
that members x and y force into the subset, and the mask takes in
`pair[x][y]` for all of its members x, y until it stops changing or holds
the whole carrier; each round looks only at the pairs that hold a member
added by the round before. Termination follows from finiteness. Two
builders make the tables: `_pairs` for closure under operation tables (a
group, a biquandle, or circ and star together for a sub-skew-brace), and
`_ideal_pairs` for the ideal conditions.

`_joins` lists every closed mask of such a closure: the sub-skew-braces
that `invariants` counts colorings over, and the ideals. The closures over
frozensets and the ideals, which no link command needs, are in
`substructures`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import inf

from .axioms import _zero_based
from .tables import OperationTable, SkewBrace

__all__: list[str] = []

# pair[x][y] as a bitmask over 0-based elements
Pairs = list[list[int]]


def _members(m: int) -> list[int]:
    """0-based elements of a mask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _fixpoint(pair: Pairs, m: int) -> int:
    # semi-naive: the members in `done` were paired with each other in an
    # earlier round; a mask that holds the whole carrier can grow no
    # further, so it is returned at once
    full = (1 << len(pair)) - 1
    done = 0
    while m != done:
        xs = _members(m)
        new = m
        for x in _members(m & ~done):
            row = pair[x]
            for y in xs:
                new |= row[y] | pair[y][x]
            if new == full:
                return new
        done, m = m, new
    return m


@lru_cache(maxsize=64)
def _pairs(*tables: OperationTable) -> Pairs:
    """pair[x][y] = the OR of 1 << (x op y) over the tables, 0-based."""
    pair = [[0] * len(row) for row in tables[0].rows]
    for table in tables:
        for out, row in zip(pair, table.rows):
            for y, v in enumerate(row):
                out[y] |= 1 << (v - 1)
    return pair


@lru_cache(maxsize=64)
def _ideal_pairs(brace: SkewBrace) -> Pairs:
    c, s, ci, si = _zero_based(brace)
    xs = range(brace.n)
    # y^circ circ x
    pair = [[1 << c[ci[y]][x] for y in xs] for x in xs]
    # the conditions on x alone go on the diagonal, since (x, x) is a pair
    # of every mask that holds x
    for x in xs:
        for z in xs:
            pair[x][x] |= 1 << s[s[si[z]][x]][z]     # z^star star x star z
            pair[x][x] |= 1 << c[c[ci[z]][x]][z]     # z^circ circ x circ z
            pair[x][x] |= 1 << s[si[z]][c[z][x]]     # z^star star (z circ x)
    return pair


def _joins(close: Callable[[int], int], n: int, cap: float = inf) -> set[int]:
    """Every close(S), S a subset of the n elements, 0 among them since
    close(0) = 0; or more than `cap` of them. A closed mask joined with one
    element closes to a closed mask, so adding one element at a time
    reaches them all."""
    found = {0}
    for x in range(n):
        if len(found) > cap:
            break
        bit = 1 << x
        # a closed mask inside close(x), joined with x, closes to close(x)
        # itself, so it needs no fixpoint of its own
        least = close(bit)
        found |= {m if m & bit else least if m & ~least == 0 else close(m | bit) for m in found}
    return found
