"""The brace file format: optional `#` comments, the carrier size n, n
rows for the circ table, one blank line, n rows for the star table.

A parsed file is validated as a skew brace before it is returned.
"""

from __future__ import annotations

import sys

from .axioms import validate_skew_brace
from .tables import OperationTable, SkewBrace, TableMalformed

__all__ = ["parse_brace_file", "format_brace_file", "load_brace_file"]


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
    with open(path, encoding="utf-8") as fh:
        return parse_brace_file(fh.read().removeprefix("\ufeff"))
