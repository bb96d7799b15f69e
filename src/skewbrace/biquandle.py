"""Biquandle structures derived from skew braces.

The derived operations on a brace (X, circ, star) are

    x under y = y^circ circ (x star y)        (written x <| y)
    x over y  = y^circ circ (y star x)        (written x |> y)

where y^circ is the circ inverse of y. A biquandle is these two tables,
built from the brace's 0-based view (`axioms._zero_based`); numpy is not
imported here. Deriving checks no biquandle axiom: every skew brace gives
a biquandle (Guarnieri and Vendramin, Math. Comp. 86 (2017)), and
`validate_skew_brace`, the only code in the package that builds a
`SkewBrace`, has checked the brace exhaustively. The axiom checker,
`properties.verify_biquandle_axioms`, lives in a module no command
imports; `tests/test_biquandle.py` runs it on the bundled braces, the Q8
witness and the 48 lambda-map braces over Q8 and D8.
"""

from __future__ import annotations

from functools import lru_cache

from .axioms import _zero_based
from .tables import OperationTable, Record, SkewBrace

__all__ = ["Biquandle", "derive_biquandle", "derived_biquandle"]


class Biquandle(Record):
    """The two operation tables, under and over, on one carrier."""

    __slots__ = ("n", "under", "over")


def derive_biquandle(brace: SkewBrace) -> Biquandle:
    """Build the two derived tables of a validated brace.

    No axiom is checked here: the brace's validation and the construction
    guarantee them, and `properties.verify_biquandle_axioms` checks them
    on demand.
    """
    n = brace.n
    c, s, ci, _ = _zero_based(brace)
    xs = range(n)
    under = [[c[ci[y]][s[x][y]] + 1 for y in xs] for x in xs]
    over = [[c[ci[y]][s[y][x]] + 1 for y in xs] for x in xs]
    return Biquandle(n, OperationTable(n, under), OperationTable(n, over))


@lru_cache(maxsize=64)
def derived_biquandle(brace: SkewBrace) -> Biquandle:
    """Cached derived biquandle of a validated brace."""
    return derive_biquandle(brace)
