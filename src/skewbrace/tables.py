"""Finite binary operations, groups, and skew braces from structure tables.

Elements are labeled 1..n throughout, matching the structure-table files.
Validation is exhaustive and reports the first counterexample in row-major
scan order, so error fixtures are deterministic.

Tables are tuples of row tuples and every check is plain Python, one row
at a time: at the sizes of a brace census an n^3 scan is a few thousand
triples, cheaper than importing numpy.

`Record`, the immutable value base of every structure in the package,
lives here because every command loads this module: importing
`dataclasses` (which loads `inspect`, `ast` and `dis`) and decorating a
class with it cost a CLI job more than the work of a small diagram.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence
from operator import itemgetter

__all__ = [
    "DomainError",
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


class Record:
    """An immutable value whose fields are the names in `__slots__`.

    Names starting with `_` are private caches, not fields. A subclass
    gets what a frozen dataclass would: a constructor taking the fields
    by position or name (trailing defaults in `_defaults`) unless it
    writes its own, assignment and deletion raising `AttributeError`,
    equality only with the exact same class and a hash to match, the repr
    `Name(field=value, ...)`, and pickling and copying by the constructor.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        if not own:
            return
        cls._fields = fields = tuple(f for f in own if not f.startswith("_"))
        # the per-instance methods are generated once per class, as
        # dataclasses do: records key caches, and a loop over the fields or
        # an `attrgetter` would slow every construction, lookup and hash
        mine, theirs = (", ".join(f"{who}.{f}" for f in fields) for who in ("self", "other"))
        ns = {"_set": object.__setattr__}
        exec(
            f"def __init__(self, {', '.join(fields)}):"
            + "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
            + "\ndef __eq__(self, other):\n if other.__class__ is self.__class__:"
            + f"\n  return ({mine},) == ({theirs},)\n return NotImplemented"
            + f"\ndef __hash__(self):\n return hash(({mine},))",
            ns,
        )
        ns["__init__"].__defaults__ = cls._defaults or None
        for name in ("__init__", "__eq__", "__hash__"):
            if cls.__dict__.get(name) is None:
                setattr(cls, name, ns[name])

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class DomainError(ValueError):
    """Base class of the errors the CLI reports with exit 1: invalid
    tables, biquandles or Gauss codes, impossible moves, and searches past
    their budget. It lives here because every command loads this module."""


class ValidationError(DomainError):
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


def _index(x: int, n: int) -> int:
    """The 0-based index of element x of the carrier 1..n."""
    if not 1 <= x <= n:
        raise ValueError(f"element {x} is outside 1..{n}")
    return x - 1


def _shape(entries) -> tuple[int, ...]:
    """The shape of nested sequences `entries`, read along first items."""
    out = []
    while hasattr(entries, "__len__") and not isinstance(entries, str):
        out.append(len(entries))
        if not out[-1]:
            break
        entries = entries[0]
    return tuple(out)


class OperationTable(Record):
    """An n x n table over carrier {1..n}; rows[x-1][y-1] = x op y.

    The table is built from any n x n nested sequence of ints and kept as
    a tuple of row tuples, so neither the rows nor the hash, computed once
    because tables key many caches, can change later.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: Sequence[Sequence[int]]) -> None:
        try:
            kept = tuple(tuple(int(v) for v in row) for row in rows)
        except TypeError:
            kept = None
        shape = _shape(rows)
        if shape != (n, n) or kept is None or any(len(row) != n for row in kept):
            raise TableMalformed(f"expected a {n}x{n} table, got shape {shape}")
        for i, row in enumerate(kept):
            for j, v in enumerate(row):
                if not 1 <= v <= n:
                    raise TableMalformed(
                        f"entry {v} at row {i + 1}, column {j + 1} is outside 1..{n}"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", kept)
        object.__setattr__(self, "_hash", hash((n, kept)))

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> OperationTable:
        return cls(len(rows), rows)

    def value(self, x: int, y: int) -> int:
        return self.rows[_index(x, self.n)][_index(y, self.n)]

    def __hash__(self) -> int:
        return self._hash


class FiniteGroup(Record):
    """A validated group: table plus computed identity and inverses."""

    __slots__ = ("table", "identity", "inverse")

    @property
    def n(self) -> int:
        return self.table.n

    def op(self, x: int, y: int) -> int:
        return self.table.value(x, y)

    def inv(self, x: int) -> int:
        return self.inverse[_index(x, self.table.n)]


class SkewBrace(Record):
    """Two group structures on one carrier tied by the modified distributive law."""

    __slots__ = ("n", "circ", "star")

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


def _digits_past_limit(text: str) -> int:
    """The digit count of `text`'s longest token, if it passes the
    interpreter's limit on digits in an int (so `int()` refused it for its
    length), else 0."""
    digits = max(sum(c.isdecimal() for c in tok) for tok in text.split())
    return digits if 0 < sys.get_int_max_str_digits() < digits else 0


def parse_brace_file(text: str) -> SkewBrace:
    body = [ln.rstrip() for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    filled = [i for i, ln in enumerate(body) if ln]
    if not filled:
        raise TableMalformed("empty brace file")
    body = body[filled[0] : filled[-1] + 1]
    try:
        n = int(body[0])
    except ValueError:
        if digits := _digits_past_limit(body[0]):
            raise TableMalformed(f"carrier size of {digits} digits is too long") from None
        raise TableMalformed(f"expected carrier size on the first line, got {body[0]!r}") from None
    if n < 1:
        raise TableMalformed("carrier size must be at least 1")

    def read_rows(start: int, what: str) -> list[list[int]]:
        rows = []
        for line in body[start : start + n]:
            if not line:
                raise TableMalformed(f"{what} table: blank line after {len(rows)} of {n} rows")
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                if digits := _digits_past_limit(line):
                    raise TableMalformed(f"{what} table: entry of {digits} digits is too long") from None
                raise TableMalformed(f"{what} table: non-integer entry in {line!r}") from None
            if len(row) != n:
                raise TableMalformed(f"{what} table: row has {len(row)} entries, expected {n}")
            rows.append(row)
        if len(rows) < n:
            raise TableMalformed(f"{what} table: expected {n} rows, found {len(rows)}")
        return rows

    circ = read_rows(1, "circ")
    if body[n + 1 : n + 2] != [""]:
        raise TableMalformed("expected one blank line between the two tables")
    star = read_rows(n + 2, "star")
    if len(body) > 2 * n + 2:
        raise TableMalformed("trailing content after the star table")
    return validate_skew_brace(OperationTable(n, circ), OperationTable(n, star))


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
