"""Biquandle structures derived from skew braces.

The derived operations on a brace (X, circ, star) are

    x under y = y^circ circ (x star y)        (written x <| y)
    x over y  = y^circ circ (y star x)        (written x |> y)

where y^circ is the circ inverse of y. A biquandle is these two tables,
built from the brace's 0-based view (`axioms._zero_based`); numpy is not
imported here. Deriving checks no biquandle axiom: every skew brace gives
a biquandle (Guarnieri and Vendramin, Math. Comp. 86 (2017)), and
`validate_skew_brace`, the only code in the package that builds a
`SkewBrace`, has checked the brace exhaustively. `verify_biquandle_axioms`
checks the axioms on any two tables; `tests/test_biquandle.py` runs it on
the bundled braces, the Q8 witness and the 48 lambda-map braces over Q8
and D8.
"""

from __future__ import annotations

from .axioms import Rows, _first_difference, _gather, _zero_based, _zero_based_rows
from .tables import OperationTable, Record, SkewBrace

__all__ = [
    "Biquandle",
    "AxiomCheck",
    "AxiomReport",
    "derive_biquandle",
    "verify_biquandle_axioms",
]

class Biquandle(Record):
    """The two operation tables, under and over, on one carrier."""

    __slots__ = ("n", "under", "over")


class AxiomCheck(Record):
    __slots__ = ("name", "passed", "witness")


class AxiomReport(Record):
    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def derive_biquandle(brace: SkewBrace) -> Biquandle:
    """Build the two derived tables of a validated brace.

    No axiom is checked here: the brace's validation and the construction
    guarantee them, and `verify_biquandle_axioms` checks them on demand.
    """
    n = brace.n
    c, s, ci, _ = _zero_based(brace)
    xs = range(n)
    under = [[c[ci[y]][s[x][y]] + 1 for y in xs] for x in xs]
    over = [[c[ci[y]][s[y][x]] + 1 for y in xs] for x in xs]
    return Biquandle(n, OperationTable(n, under), OperationTable(n, over))


def _check_fixed_point(u: Rows, o: Rows) -> AxiomCheck:
    for x, (ux, ox) in enumerate(zip(u, o)):
        if ux[x] != ox[x]:
            return AxiomCheck("fixed_point", False, (x + 1,))
    return AxiomCheck("fixed_point", True, None)


def _check_right_invertible(u: Rows, o: Rows) -> AxiomCheck:
    # for each y, x -> x op y is a bijection: no column of U or O repeats a
    # value. The witness is the first cell whose value an earlier row of
    # its column has
    seen = set()
    for x, (ux, ox) in enumerate(zip(u, o)):
        for y, (uxy, oxy) in enumerate(zip(ux, ox)):
            if ("u", y, uxy) in seen or ("o", y, oxy) in seen:
                return AxiomCheck("right_invertible", False, (x + 1, y + 1))
            seen.update((("u", y, uxy), ("o", y, oxy)))
    return AxiomCheck("right_invertible", True, None)


def _check_pair_bijective(u: Rows, o: Rows) -> AxiomCheck:
    # S(x,y) = (y |> x, x <| y); the first pair whose image was seen before
    seen = set()
    for x, ux in enumerate(u):
        for y, uxy in enumerate(ux):
            image = (o[y][x], uxy)
            if image in seen:
                return AxiomCheck("pair_bijective", False, (x + 1, y + 1))
            seen.add(image)
    return AxiomCheck("pair_bijective", True, None)


def _check_law(name: str, p: Rows, q: Rows, r: Rows, s: Rows, t: Rows, w: Rows) -> AxiomCheck:
    # p[q[x][y]][r[z][y]] == s[t[x][z]][w[y][z]]. With y and z fixed, each
    # side is one column gathered over x, so every (y, z) gives its first
    # failing x at once, and the least (x, y, z) is the row-major witness
    p_cols, r_cols, s_cols = list(zip(*p)), list(zip(*r)), list(zip(*s))
    by_q = [_gather(col) for col in zip(*q)]
    by_t = [_gather(col) for col in zip(*t)]
    first = None
    for y, (q_y, r_y, w_y) in enumerate(zip(by_q, r_cols, w)):
        for z, (t_z, r_zy, w_yz) in enumerate(zip(by_t, r_y, w_y)):
            lhs = q_y(p_cols[r_zy])
            rhs = t_z(s_cols[w_yz])
            if lhs != rhs:
                witness = (_first_difference(lhs, rhs) + 1, y + 1, z + 1)
                first = min(first or witness, witness)
    return AxiomCheck(name, first is None, first)


def verify_biquandle_axioms(bq: Biquandle) -> AxiomReport:
    """Exhaustively check all biquandle axioms on arbitrary under and over
    tables.

    Failures are report content, never exceptions, so corrupted tables can
    be inspected. Witnesses are the first counterexample in row-major order.
    """
    u, o = _zero_based_rows(bq.under), _zero_based_rows(bq.over)
    return AxiomReport(
        checks=(
            _check_fixed_point(u, o),
            _check_right_invertible(u, o),
            _check_pair_bijective(u, o),
            # (x<|y)<|(z<|y) == (x<|z)<|(y|>z)
            _check_law("exchange_1", u, u, u, u, u, o),
            # (x<|y)|>(z<|y) == (x|>z)<|(y|>z)
            _check_law("exchange_2", o, u, u, u, o, o),
            # (x|>y)|>(z|>y) == (x|>z)|>(y<|z)
            _check_law("exchange_3", o, o, o, o, o, u),
        )
    )
