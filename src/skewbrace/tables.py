"""Finite binary operations, groups, and skew braces from structure tables.

Elements are labeled 1..n throughout, matching the structure-table files.
Tables are tuples of row tuples. This module holds the values and the
errors; the axiom checks that build a `FiniteGroup` or a `SkewBrace` are
in `axioms`, and the text format in `bracefile`.

`read_text` reads every text file a user gives, brace files and link
files alike, and raises `InputError` on one that is not UTF-8: the one
place that decides how such a file is decoded.

`Record`, the immutable value base of every structure in the package,
lives here because every command loads this module: importing
`dataclasses` (which loads `inspect`, `ast` and `dis`) cost a CLI job
more than the work of a small diagram, and its methods generated per
class compiled about 140 us of code per class in every process (a link
job defines 9-11), where `Record`'s shared ones cost 0.2-0.9 us more
per construction.
"""

from __future__ import annotations

import copyreg
from collections.abc import Sequence
from operator import attrgetter, index

__all__ = [
    "DomainError",
    "InputError",
    "read_text",
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
]


class Record:
    """An immutable value whose fields are the names in `__slots__`.

    Names starting with `_` are private caches, not fields. A subclass
    gets what a frozen dataclass would: a constructor taking the fields
    by position or name, with no defaults, unless it writes its own,
    assignment and deletion raising `AttributeError`, equality only with
    the exact same class and a hash to match, the repr
    `Name(field=value, ...)`, and pickling and copying by the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if own := cls.__dict__.get("__slots__", ()):
            cls._fields = tuple(f for f in own if not f.startswith("_"))
            cls._values = attrgetter(*cls._fields)
            cls._setters = tuple(cls.__dict__[f].__set__ for f in cls._fields)

    # shared, not compiled per class (~140 us a class a process): +0.2-0.9 us a record
    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs:
            args += tuple(kwargs.pop(f) for f in self._fields[len(args) :] if f in kwargs)
        if kwargs or len(args) != len(self._setters):
            raise TypeError(f"{self.__class__.__name__}() takes each of {self._fields} once")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values(self) == self._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class DomainError(ValueError):
    """Base class of the errors the CLI reports with exit 1: invalid
    tables, biquandles or Gauss codes, impossible moves, and searches past
    their budget. It lives here because every command loads this module."""

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild an error from its message and witness
        # attributes, without calling the subclass's __init__ again
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputError(ValueError):
    """An input the CLI reports with exit 2, as it does an `OSError`: a
    missing file, a file that is not UTF-8, or a link argument that names
    no link. Not a `DomainError`: the input was never read as a brace or
    a link."""


def read_text(path: str) -> str:
    """The text of the UTF-8 file at `path`, a leading BOM dropped."""
    try:
        with open(path, encoding="utf-8") as fh:
            # a leading BOM is dropped here, not by "utf-8-sig", so that a
            # decode error's byte offset counts from the start of the file
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


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


def _entry(v, i: int, j: int, n: int) -> int:
    """Entry v at 0-based row i, column j of an n x n table, as an int."""
    try:
        k = index(v)
    except TypeError:
        raise TableMalformed(
            f"entry {v!r} at row {i + 1}, column {j + 1} is not an integer"
        ) from None
    if not 1 <= k <= n:
        raise TableMalformed(f"entry {k} at row {i + 1}, column {j + 1} is outside 1..{n}")
    return k


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
        shape = _shape(rows)
        if shape != (n, n) or any(_shape(row)[:1] != (n,) for row in rows):
            raise TableMalformed(f"expected a {n}x{n} table, got shape {shape}")
        kept = tuple(
            tuple(_entry(v, i, j, n) for j, v in enumerate(row)) for i, row in enumerate(rows)
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
