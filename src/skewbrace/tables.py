"""Finite binary operations, groups, and skew braces from structure tables.

Elements are labeled 1..n throughout, matching the structure-table files.
Validation is exhaustive and reports the first counterexample in row-major
scan order, so error fixtures are deterministic.

Tables are tuples of row tuples and every check is plain Python, one row
at a time: at the sizes of a brace census an n^3 scan is a few thousand
triples, cheaper than importing numpy. Only `OperationTable.entries` and
`zero_based`, which the coloring kernel reads, import it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OperationTable",
    "FiniteGroup",
    "SkewBrace",
    "ValidationError",
    "TableMalformed",
    "NotAssociative",
    "NoIdentity",
    "NoInverse",
    "DistributiveLawFails",
    "IdentityMismatch",
    "validate_group",
    "validate_skew_brace",
    "is_star_commutative",
    "is_involutive",
    "parse_brace_file",
    "format_brace_file",
    "load_brace_file",
]

class ValidationError(ValueError):
    """Base class for structure-table validation failures."""


class TableMalformed(ValidationError):
    pass


class NotAssociative(ValidationError):
    def __init__(self, x: int, y: int, z: int, table_name: str = "") -> None:
        self.witness = (x, y, z)
        self.table_name = table_name
        where = f"{table_name} table: " if table_name else ""
        super().__init__(f"{where}not associative at (x, y, z) = ({x}, {y}, {z})")


class NoIdentity(ValidationError):
    def __init__(self, table_name: str = "") -> None:
        self.table_name = table_name
        where = f"{table_name} table: " if table_name else ""
        super().__init__(f"{where}no identity element")


class NoInverse(ValidationError):
    def __init__(self, x: int, table_name: str = "") -> None:
        self.witness = x
        self.table_name = table_name
        where = f"{table_name} table: " if table_name else ""
        super().__init__(f"{where}no inverse for {x}")


class DistributiveLawFails(ValidationError):
    def __init__(self, x: int, y: int, z: int) -> None:
        self.witness = (x, y, z)
        super().__init__(f"distributive law fails at (x, y, z) = ({x}, {y}, {z})")


class IdentityMismatch(ValidationError):
    def __init__(self, circ_identity: int, star_identity: int) -> None:
        self.witness = (circ_identity, star_identity)
        super().__init__(
            f"identity mismatch: circ identity {circ_identity}, star identity {star_identity}"
        )


Rows = tuple[tuple[int, ...], ...]


def _shape(entries) -> tuple[int, ...]:
    """The shape numpy would give `entries`, read along first items."""
    out = []
    while hasattr(entries, "__len__") and not isinstance(entries, str):
        out.append(len(entries))
        if not out[-1]:
            break
        entries = entries[0]
    return tuple(out)


@dataclass(frozen=True)
class OperationTable:
    """An n x n table over carrier {1..n}; rows[x-1][y-1] = x op y.

    The table is built from a nested list or an ndarray and kept as a
    tuple of row tuples, so neither the rows nor the hash, computed once
    because tables key many caches, can change later. `entries`, the same
    table as a read-only int64 ndarray for kernel code, imports numpy and
    is built on first use.
    """

    n: int
    rows: Rows
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, entries = self.n, self.rows
        if hasattr(entries, "tolist"):
            entries = entries.tolist()
        try:
            rows = tuple(tuple(int(v) for v in row) for row in entries)
        except TypeError:
            rows = None
        shape = _shape(entries)
        if shape != (n, n) or rows is None or any(len(row) != n for row in rows):
            raise TableMalformed(f"expected a {n}x{n} table, got shape {shape}")
        if n < 1:
            raise TableMalformed("carrier size must be at least 1")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not 1 <= v <= n:
                    raise TableMalformed(
                        f"entry {v} at row {i + 1}, column {j + 1} is outside 1..{n}"
                    )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((n, rows)))

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> OperationTable:
        return cls(len(rows), rows)

    @cached_property
    def entries(self) -> np.ndarray:
        import numpy as np

        arr = np.array(self.rows, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def value(self, x: int, y: int) -> int:
        return self.rows[x - 1][y - 1]

    def zero_based(self) -> np.ndarray:
        """0-based copy for kernel code."""
        return self.entries - 1

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class FiniteGroup:
    """A validated group: table plus computed identity and inverses."""

    table: OperationTable
    identity: int
    inverse: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.table.n

    def op(self, x: int, y: int) -> int:
        return self.table.value(x, y)

    def inv(self, x: int) -> int:
        return self.inverse[x - 1]


@dataclass(frozen=True)
class SkewBrace:
    """Two group structures on one carrier tied by the modified distributive law."""

    n: int
    circ: FiniteGroup
    star: FiniteGroup

    @property
    def identity(self) -> int:
        return self.circ.identity


def _zero_based_rows(table: OperationTable) -> list[tuple[int, ...]]:
    return [tuple([v - 1 for v in row]) for row in table.rows]


def _gather(index: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map from a row r to (r[i] for i in index), as a tuple."""
    get = itemgetter(*index)
    return get if len(index) > 1 else lambda row: (get(row),)


def _first_difference(left: Sequence[int], right: Sequence[int]) -> int:
    return next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)


def _check_associative(t: list[tuple[int, ...]], table_name: str) -> None:
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

    c = _zero_based_rows(circ)
    s = _zero_based_rows(star)
    sinv = _inverse_map(g_star)
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
    return SkewBrace(n=circ.n, circ=g_circ, star=g_star)


def is_star_commutative(brace: SkewBrace) -> bool:
    rows = brace.star.table.rows
    return tuple(zip(*rows)) == rows


def _inverse_map(group: FiniteGroup) -> list[int]:
    """0-based inverses."""
    return [v - 1 for v in group.inverse]


def is_involutive(brace: SkewBrace) -> bool:
    """True iff r composed with itself is the identity on all pairs."""
    c0 = _zero_based_rows(brace.circ.table)
    s0 = _zero_based_rows(brace.star.table)
    cinv0 = _inverse_map(brace.circ)
    sinv0 = _inverse_map(brace.star)
    xs = range(brace.n)
    # a[x][y] = x^star star (x circ y); b[x][y] = a^circ circ x circ y
    a = [[s0[sinv0[x]][v] for v in c0[x]] for x in xs]
    b = [[c0[c0[cinv0[a[x][y]]][x]][y] for y in xs] for x in xs]
    return all(
        a[a[x][y]][b[x][y]] == x and b[a[x][y]][b[x][y]] == y for x in xs for y in xs
    )


# ---------------------------------------------------------------------------
# brace file format: optional '#' comments, n, n rows for the circ table,
# one blank line, n rows for the star table


def parse_brace_file(text: str) -> SkewBrace:
    lines = [ln.rstrip() for ln in text.splitlines()]
    body = [ln for ln in lines if not ln.lstrip().startswith("#")]
    # strip leading blanks, keep internal structure
    while body and not body[0].strip():
        body.pop(0)
    while body and not body[-1].strip():
        body.pop()
    if not body:
        raise TableMalformed("empty brace file")
    try:
        n = int(body[0].strip())
    except ValueError:
        raise TableMalformed(f"expected carrier size on the first line, got {body[0]!r}") from None
    if n < 1:
        raise TableMalformed("carrier size must be at least 1")

    def read_rows(start: int, what: str) -> tuple[list[list[int]], int]:
        rows = []
        i = start
        while len(rows) < n:
            if i >= len(body):
                raise TableMalformed(f"{what} table: expected {n} rows, found {len(rows)}")
            line = body[i]
            i += 1
            if not line.strip():
                raise TableMalformed(f"{what} table: blank line after {len(rows)} of {n} rows")
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise TableMalformed(f"{what} table: non-integer entry in {line!r}") from None
            if len(row) != n:
                raise TableMalformed(f"{what} table: row has {len(row)} entries, expected {n}")
            rows.append(row)
        return rows, i

    circ_rows, i = read_rows(1, "circ")
    if i >= len(body) or body[i].strip():
        raise TableMalformed("expected one blank line between the two tables")
    star_rows, i = read_rows(i + 1, "star")
    if any(ln.strip() for ln in body[i:]):
        raise TableMalformed("trailing content after the star table")
    return validate_skew_brace(
        OperationTable.from_rows(circ_rows), OperationTable.from_rows(star_rows)
    )


def format_brace_file(brace: SkewBrace) -> str:
    """Canonical file form: n, circ rows, blank line, star rows."""
    out = [str(brace.n)]
    for table in (brace.circ.table, brace.star.table):
        out.extend(" ".join(str(v) for v in row) for row in table.rows)
        out.append("")
    return "\n".join(out[:-1]) + "\n"


def load_brace_file(path: str) -> SkewBrace:
    with open(path, encoding="utf-8") as fh:
        return parse_brace_file(fh.read())
