"""The brace file format: optional `#` comments, the carrier size n, n
rows for the circ table, one blank line, n rows for the star table.

A parsed file is validated as a skew brace before it is returned.

`load_link` reads a link argument as the CLI takes it, a link file or an
inline Gauss code, and imports `gauss` only when called. It lives here,
not next to the parsers in `gauss`, because every command compiles this
module early, while a larger `gauss` raised the peak RSS of the link
commands that compile it later. Both loaders read files through
`tables.read_text`.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

from .axioms import validate_skew_brace
from .tables import InputError, OperationTable, SkewBrace, TableMalformed, read_text

if TYPE_CHECKING:
    from .gauss import LinkDiagram

__all__ = ["parse_brace_file", "format_brace_file", "load_brace_file", "load_link"]


def _digits_past_limit(text: str) -> int:
    """The digit count of `text`'s longest token, if it passes the
    interpreter's limit on digits in an int (so `int()` refused it for its
    length), else 0. Python 3.10 before 3.10.7 has no limit."""
    digits = max(sum(c.isdecimal() for c in tok) for tok in text.split())
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return digits if 0 < limit < digits else 0


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
    return _format_tables(brace.circ.table, brace.star.table)


def _format_tables(first: OperationTable, second: OperationTable) -> str:
    """Two tables over one carrier in the file form: n, the first table's
    rows, a blank line, the second table's rows."""
    out = [str(first.n)]
    for table in (first, second):
        out.extend(" ".join(str(v) for v in row) for row in table.rows)
        out.append("")
    return "\n".join(out[:-1]) + "\n"


def load_brace_file(path: str) -> SkewBrace:
    return parse_brace_file(read_text(path))


def load_link(arg: str, name: str | None) -> LinkDiagram:
    """A link argument is a file of named links or an inline Gauss code:
    the file's link `name`, or its only link when `name` is None."""
    from .gauss import looks_like_gauss_code, parse_gauss_code, parse_link_file

    if os.path.exists(arg):
        links = parse_link_file(read_text(arg))
        if not links:
            raise InputError(f"no links defined in {arg}")
        if name is None:
            if len(links) > 1:
                raise InputError(f"{arg} defines {len(links)} links; pick one with --name")
            name = next(iter(links))
        if name not in links:
            raise InputError(f"no link named {name!r} in {arg}")
        return links[name]
    if name is not None:
        raise InputError("--name only applies when the link argument is a file")
    if not looks_like_gauss_code(arg):
        raise InputError(f"link argument is neither an existing file nor a Gauss code: {arg}")
    return parse_gauss_code(arg)
