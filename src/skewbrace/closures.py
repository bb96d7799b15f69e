"""Closure computations inside a skew brace.

Subsets come in as any iterable of 1-based elements and go out as
frozensets; the ambient structure is passed alongside rather than stored.
Inside, a subset is a Python-int bitmask with bit x - 1 set for element x,
so the carrier size has no limit.

Each closure is a fixpoint over one table built once per structure from
its operation tables and cached: `pair[x][y]` holds the bits that members
x and y force into the subset, and the mask takes in `pair[x][y]` for all
of its members x, y until it stops changing; each round looks only at the
pairs that hold a member added by the round before. Termination follows
from finiteness. A group closure needs less: it is every product of the
generators, so each round multiplies only its new members by them.

The ideals are enumerated over the same masks, by joining ideal closures
of singletons; `is_ideal` checks the conditions directly and is the
independent oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .tables import FiniteGroup, OperationTable, SkewBrace

if TYPE_CHECKING:
    from .biquandle import Biquandle

__all__ = [
    "EmptyGenerators",
    "group_closure",
    "biquandle_closure",
    "ideal_closure",
    "is_ideal",
    "enumerate_ideals",
]

Subset = frozenset[int]
# pair[x][y] as a bitmask over 0-based elements
Pairs = list[list[int]]


class EmptyGenerators(ValueError):
    def __init__(self) -> None:
        super().__init__("closure of the empty set is not defined")


def _require_nonempty(s) -> set[int]:
    out = set(s)
    if not out:
        raise EmptyGenerators()
    return out


def _to_mask(s) -> int:
    m = 0
    for x in _require_nonempty(s):
        m |= 1 << (x - 1)
    return m


def _members(m: int) -> list[int]:
    """0-based elements of a mask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _from_mask(m: int) -> Subset:
    return frozenset(x + 1 for x in _members(m))


def _fixpoint(pair: Pairs, m: int) -> int:
    # semi-naive: the members in `done` were paired with each other in an
    # earlier round
    done = 0
    while m != done:
        xs = _members(m)
        new = m
        for x in _members(m & ~done):
            row = pair[x]
            for y in xs:
                new |= row[y] | pair[y][x]
        done, m = m, new
    return m


@lru_cache(maxsize=64)
def _bits(table: OperationTable) -> Pairs:
    """Table of 1 << (x op y), 0-based."""
    return [[1 << (v - 1) for v in row] for row in table.rows]


@lru_cache(maxsize=64)
def _biquandle_pairs(under: OperationTable, over: OperationTable) -> Pairs:
    return [
        [u | o for u, o in zip(urow, orow)]
        for urow, orow in zip(_bits(under), _bits(over))
    ]


@lru_cache(maxsize=64)
def _ideal_pairs(brace: SkewBrace) -> Pairs:
    n = brace.n
    circ = brace.circ.table.rows
    star = brace.star.table.rows
    ci = [brace.circ.inv(z + 1) - 1 for z in range(n)]
    si = [brace.star.inv(z + 1) - 1 for z in range(n)]

    def c(x: int, y: int) -> int:
        return circ[x][y] - 1

    def s(x: int, y: int) -> int:
        return star[x][y] - 1

    # y^circ circ x
    pair = [[1 << c(ci[y], x) for y in range(n)] for x in range(n)]
    # the conditions on x alone go on the diagonal, since (x, x) is a pair
    # of every mask that holds x
    for x in range(n):
        for z in range(n):
            pair[x][x] |= 1 << s(s(si[z], x), z)     # z^star star x star z
            pair[x][x] |= 1 << c(c(ci[z], x), z)     # z^circ circ x circ z
            pair[x][x] |= 1 << s(si[z], c(z, x))     # z^star star (z circ x)
    return pair


def _group_mask(group: FiniteGroup, m: int) -> int:
    # a finite group's closure of m is every product of members of m, so
    # each round multiplies only the members new in the round before by
    # the generators
    row = _bits(group.table)
    gens = _members(m)
    new = m
    while new:
        out = 0
        for x in _members(new):
            bits = row[x]
            for g in gens:
                out |= bits[g]
        new = out & ~m
        m |= new
    return m


def _biquandle_mask(bq: Biquandle, m: int) -> int:
    return _fixpoint(_biquandle_pairs(bq.under, bq.over), m)


def _ideal_mask(brace: SkewBrace, m: int) -> int:
    return _fixpoint(_ideal_pairs(brace), m)


def group_closure(group: FiniteGroup, s) -> Subset:
    """Smallest subset containing s closed under the group operation.

    Inverses and the identity come for free in a finite group.
    """
    return _from_mask(_group_mask(group, _to_mask(s)))


def biquandle_closure(bq: Biquandle, s) -> Subset:
    """Smallest superset of s closed under the under and over operations."""
    return _from_mask(_biquandle_mask(bq, _to_mask(s)))


def ideal_closure(brace: SkewBrace, s) -> Subset:
    """Smallest superset of s satisfying the four ideal closure conditions.

    Always contains the identity, since y^circ circ y = e.
    """
    return _from_mask(_ideal_mask(brace, _to_mask(s)))


def is_ideal(brace: SkewBrace, s) -> bool:
    """Direct check of the ideal conditions for a nonempty subset."""
    members = _require_nonempty(s)
    circ, star = brace.circ, brace.star
    for x in members:
        for y in members:
            if circ.op(circ.inv(y), x) not in members:
                return False
        for z in range(1, brace.n + 1):
            if star.op(star.op(star.inv(z), x), z) not in members:
                return False
            if circ.op(circ.op(circ.inv(z), x), z) not in members:
                return False
            if star.op(star.inv(z), circ.op(z, x)) not in members:
                return False
    return True


def _sort_key(s: Subset):
    return (len(s), tuple(sorted(s)))


def enumerate_ideals(brace: SkewBrace) -> list[Subset]:
    """All nonempty ideals, ascending by size then lexicographically.

    Every ideal is the ideal closure of the union of its members'
    singleton closures, so a worklist that joins each ideal found with
    each singleton closure reaches all of them at any carrier size. The
    empty set vacuously satisfies the conditions but is excluded; the
    output always includes {e} and the full carrier.
    """
    pair = _ideal_pairs(brace)
    singles = {_fixpoint(pair, 1 << x) for x in range(brace.n)}
    found = set(singles)
    work = list(singles)
    while work:
        m = work.pop()
        for s in singles:
            if s & ~m:
                j = _fixpoint(pair, m | s)
                if j not in found:
                    found.add(j)
                    work.append(j)
    return sorted(map(_from_mask, found), key=_sort_key)
