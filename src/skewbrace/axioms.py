"""The group and skew brace axioms, checked exhaustively over structure
tables.

Each check reports the first counterexample in row-major scan order, so
error fixtures are deterministic. Every check is plain Python, one row at
a time over 0-based row tuples: at the sizes of a brace census an n^3 scan
is a few thousand triples, cheaper than importing numpy. `_zero_based`
is a brace's 0-based view, which `biquandle` and `closures` build their
tables from.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter

from .tables import (
    DistributiveLawFails,
    FiniteGroup,
    IdentityMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    OperationTable,
    SkewBrace,
    TableMalformed,
)

__all__ = ["validate_group", "validate_skew_brace", "is_star_commutative", "is_involutive"]


Rows = list[tuple[int, ...]]  # 0-based


def _zero_based_rows(table: OperationTable) -> Rows:
    return [tuple([v - 1 for v in row]) for row in table.rows]


def _zero_based(brace: SkewBrace) -> tuple[Rows, Rows, list[int], list[int]]:
    """A brace's circ rows, star rows, circ inverses and star inverses,
    all 0-based."""
    return (
        _zero_based_rows(brace.circ.table),
        _zero_based_rows(brace.star.table),
        [v - 1 for v in brace.circ.inverse],
        [v - 1 for v in brace.star.inverse],
    )


def _gather(index: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map from a row r to (r[i] for i in index), as a tuple."""
    get = itemgetter(*index)
    return get if len(index) > 1 else lambda row: (get(row),)


def _first_difference(left: Sequence[int], right: Sequence[int]) -> int:
    return next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)


def _check_associative(t: Rows, table_name: str) -> None:
    # (x op y) op z against x op (y op z), one row over z per (x, y)
    by_row = [_gather(ty) for ty in t]
    for x, tx in enumerate(t):
        for y, xy in enumerate(tx):
            left = t[xy]
            right = by_row[y](tx)
            if left != right:
                z = _first_difference(left, right)
                raise NotAssociative(x + 1, y + 1, z + 1, table_name)


def validate_group(table: OperationTable, table_name: str = "") -> FiniteGroup:
    """Check the group axioms exhaustively and return the validated group.

    Raises NotAssociative, NoIdentity, or NoInverse naming the first witness.
    """
    n = table.n
    t = _zero_based_rows(table)
    _check_associative(t, table_name)
    idx = tuple(range(n))
    ident = next(
        (c for c in idx if t[c] == idx and tuple([row[c] for row in t]) == idx), None
    )
    if ident is None:
        raise NoIdentity(table_name)
    inverse = []
    for x in idx:
        y = next((y for y in idx if t[x][y] == ident and t[y][x] == ident), None)
        if y is None:
            raise NoInverse(x + 1, table_name)
        inverse.append(y + 1)
    return FiniteGroup(table=table, identity=ident + 1, inverse=tuple(inverse))


def validate_skew_brace(circ: OperationTable, star: OperationTable) -> SkewBrace:
    """Validate both tables as groups and the modified distributive law.

    The law is x@(y*z) = (x@y) * inv_*(x) * (x@z) with @ the circ operation,
    checked for all n^3 triples.
    """
    if circ.n != star.n:
        raise TableMalformed(f"table sizes differ: {circ.n} vs {star.n}")
    g_circ = validate_group(circ, "circ")
    g_star = validate_group(star, "star")
    if g_circ.identity != g_star.identity:
        raise IdentityMismatch(g_circ.identity, g_star.identity)

    brace = SkewBrace(n=circ.n, circ=g_circ, star=g_star)
    c, s, _, sinv = _zero_based(brace)
    by_star_row = [_gather(sy) for sy in s]
    for x, cx in enumerate(c):
        by_cx = _gather(cx)
        for y, xy in enumerate(cx):
            lhs = by_star_row[y](cx)                    # x @ (y*z)
            a = s[s[xy][sinv[x]]]                       # row of (x@y) * x^-*
            rhs = by_cx(a)                              # ... * (x@z)
            if lhs != rhs:
                z = _first_difference(lhs, rhs)
                raise DistributiveLawFails(x + 1, y + 1, z + 1)
    return brace


def is_star_commutative(brace: SkewBrace) -> bool:
    rows = brace.star.table.rows
    return tuple(zip(*rows)) == rows


def is_involutive(brace: SkewBrace) -> bool:
    """True iff r composed with itself is the identity on all pairs."""
    c0, s0, cinv0, sinv0 = _zero_based(brace)
    xs = range(brace.n)
    # a[x][y] = x^star star (x circ y); b[x][y] = a^circ circ x circ y
    a = [[s0[sinv0[x]][v] for v in c0[x]] for x in xs]
    b = [[c0[c0[cinv0[a[x][y]]][x]][y] for y in xs] for x in xs]
    return all(
        a[a[x][y]][b[x][y]] == x and b[a[x][y]][b[x][y]] == y for x in xs for y in xs
    )
