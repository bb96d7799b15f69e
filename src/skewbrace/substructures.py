"""Closures of subsets and the ideals of a skew brace.

Subsets come in as any iterable of 1-based elements and go out as
frozensets; the ambient structure is passed alongside rather than stored.
Each closure converts its subset to a bitmask and runs the kernel in
`closures` on the structure's pair table. The ideals are enumerated over
the same masks, as the ideal closures `closures._joins` lists; `is_ideal`
checks the conditions directly and is the independent oracle.

Only `skewbrace ideals` imports this module, so no link command compiles
it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from .closures import Pairs, _fixpoint, _ideal_pairs, _joins, _members, _pairs
from .tables import FiniteGroup, SkewBrace, _index

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


class EmptyGenerators(ValueError):
    pass


def _require_nonempty(s) -> set[int]:
    out = set(s)
    if not out:
        raise EmptyGenerators("closure of the empty set is not defined")
    return out


def _to_mask(s, n: int) -> int:
    m = 0
    for x in _require_nonempty(s):
        m |= 1 << _index(x, n)
    return m


def _from_mask(m: int) -> Subset:
    return frozenset(x + 1 for x in _members(m))


def _close(pair: Pairs, s) -> Subset:
    return _from_mask(_fixpoint(pair, _to_mask(s, len(pair))))


def group_closure(group: FiniteGroup, s) -> Subset:
    """Smallest subset containing s closed under the group operation.

    Inverses and the identity come for free in a finite group.
    """
    return _close(_pairs(group.table), s)


def biquandle_closure(bq: Biquandle, s) -> Subset:
    """Smallest superset of s closed under the under and over operations."""
    return _close(_pairs(bq.under, bq.over), s)


def ideal_closure(brace: SkewBrace, s) -> Subset:
    """Smallest superset of s satisfying the four ideal closure conditions.

    Always contains the identity, since y^circ circ y = e.
    """
    return _close(_ideal_pairs(brace), s)


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

    Every ideal is the ideal closure of its own members, so the ideal
    closures of all subsets, which `_joins` lists at any carrier size,
    are every ideal. The empty set vacuously satisfies the conditions but
    is excluded; the output always includes {e} and the full carrier.
    """
    found = _joins(partial(_fixpoint, _ideal_pairs(brace)), brace.n)
    found.discard(0)
    return sorted(map(_from_mask, found), key=_sort_key)
