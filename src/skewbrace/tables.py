"""Finite binary operations, groups, and skew braces from structure tables.

Elements are labeled 1..n throughout, matching the structure-table files.
Validation is exhaustive and reports the first counterexample in row-major
scan order, so error fixtures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# block size for chunking n^3 checks so temporaries stay near 2^24 entries
_CHUNK_CELLS = 1 << 24


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


@dataclass(frozen=True)
class OperationTable:
    """An n x n table over carrier {1..n}; entries[x-1][y-1] = x op y.

    The entries are a read-only copy of the input, so neither they nor the
    hash, computed once because tables key many caches, can change later.
    """

    n: int
    entries: np.ndarray
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.int64)
        if arr.shape != (self.n, self.n):
            raise TableMalformed(f"expected a {self.n}x{self.n} table, got shape {arr.shape}")
        if self.n < 1:
            raise TableMalformed("carrier size must be at least 1")
        if arr.min() < 1 or arr.max() > self.n:
            bad = np.argwhere((arr < 1) | (arr > self.n))[0]
            raise TableMalformed(
                f"entry {arr[bad[0], bad[1]]} at row {bad[0] + 1}, column {bad[1] + 1} "
                f"is outside 1..{self.n}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_hash", hash((self.n, arr.tobytes())))

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> OperationTable:
        return cls(len(rows), np.array(rows, dtype=np.int64))

    def value(self, x: int, y: int) -> int:
        return int(self.entries[x - 1, y - 1])

    def zero_based(self) -> np.ndarray:
        """0-based copy for kernel code."""
        return np.ascontiguousarray(self.entries - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperationTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.entries, other.entries))

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


def _check_associative(t: np.ndarray, table_name: str) -> None:
    n = t.shape[0]
    block = max(1, _CHUNK_CELLS // (n * n))
    for lo in range(0, n, block):
        xs = slice(lo, min(lo + block, n))
        # left[x,y,z] = (x op y) op z ; right[x,y,z] = x op (y op z)
        left = t[t[xs, :], :]
        right = t[xs][:, t]
        if not np.array_equal(left, right):
            x, y, z = np.argwhere(left != right)[0]
            raise NotAssociative(int(x) + lo + 1, int(y) + 1, int(z) + 1, table_name)


def validate_group(table: OperationTable, table_name: str = "") -> FiniteGroup:
    """Check the group axioms exhaustively and return the validated group.

    Raises NotAssociative, NoIdentity, or NoInverse naming the first witness.
    """
    n = table.n
    t = table.zero_based()
    _check_associative(t, table_name)
    ident = None
    idx = np.arange(n)
    for c in range(n):
        if np.array_equal(t[c], idx) and np.array_equal(t[:, c], idx):
            ident = c
            break
    if ident is None:
        raise NoIdentity(table_name)
    inverse = [0] * n
    for x in range(n):
        ys = np.flatnonzero((t[x] == ident) & (t[:, x] == ident))
        if ys.size == 0:
            raise NoInverse(x + 1, table_name)
        inverse[x] = int(ys[0]) + 1
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

    n = circ.n
    c = circ.zero_based()
    s = star.zero_based()
    sinv = np.array([g_star.inv(x + 1) - 1 for x in range(n)], dtype=np.int64)
    block = max(1, _CHUNK_CELLS // (n * n))
    for lo in range(0, n, block):
        xs = np.arange(lo, min(lo + block, n))
        lhs = c[xs][:, s]                               # x @ (y*z)
        xy = c[xs, :]                                   # (x @ y)
        a = s[xy, sinv[xs][:, None]]                    # (x@y) * x^-*
        rhs = s[a[:, :, None], c[xs][:, None, :]]       # ... * (x@z)
        if not np.array_equal(lhs, rhs):
            x, y, z = np.argwhere(lhs != rhs)[0]
            raise DistributiveLawFails(int(x) + lo + 1, int(y) + 1, int(z) + 1)
    return SkewBrace(n=n, circ=g_circ, star=g_star)


def is_star_commutative(brace: SkewBrace) -> bool:
    t = brace.star.table.entries
    return bool(np.array_equal(t, t.T))


def _inverse_map(group: FiniteGroup) -> np.ndarray:
    return np.array([group.inv(x + 1) - 1 for x in range(group.n)], dtype=np.int64)


def is_involutive(brace: SkewBrace) -> bool:
    """True iff r composed with itself is the identity on all pairs."""
    n = brace.n
    c0 = brace.circ.table.zero_based()
    s0 = brace.star.table.zero_based()
    cinv0 = _inverse_map(brace.circ)
    sinv0 = _inverse_map(brace.star)
    xs = np.arange(n)
    # a[x,y] = x^star star (x circ y); b[x,y] = a^circ circ x circ y
    a = s0[sinv0[:, None], c0]
    b = c0[c0[cinv0[a], xs[:, None]], xs[None, :]]
    aa = a[a, b]
    bb = b[a, b]
    return bool(np.array_equal(aa, xs[:, None].repeat(n, 1)) and np.array_equal(bb, xs[None, :].repeat(n, 0)))


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
        out.extend(" ".join(str(v) for v in row) for row in table.entries.tolist())
        out.append("")
    return "\n".join(out[:-1]) + "\n"


def load_brace_file(path: str) -> SkewBrace:
    with open(path, encoding="utf-8") as fh:
        return parse_brace_file(fh.read())
