"""Biquandle structures derived from skew braces.

The derived operations on a brace (X, circ, star) are

    x under y = y^circ circ (x star y)        (written x <| y)
    x over y  = y^circ circ (y star x)        (written x |> y)

with right inverses

    x under_inv y = (y circ x) star y^star
    x over_inv y  = y^star star (y circ x)

where ^circ and ^star denote group inverses. The four tables are built
and their axioms checked in plain Python over 0-based row lists, as in
`tables`; numpy is not imported here.
"""

from __future__ import annotations

from dataclasses import dataclass

# is_involutive, a property of the brace, lives in tables and stays
# importable from here
from .tables import (  # noqa: F401
    OperationTable,
    SkewBrace,
    _first_difference,
    _gather,
    _inverse_map,
    _zero_based_rows,
    is_involutive,
)

__all__ = [
    "Biquandle",
    "AxiomViolation",
    "AxiomCheck",
    "AxiomReport",
    "derive_biquandle",
    "verify_biquandle_axioms",
    "yb_map",
    "yb_map_inverse",
    "r_map",
]

AXIOM_NAMES = (
    "fixed_point",
    "right_invertible",
    "pair_bijective",
    "exchange_1",
    "exchange_2",
    "exchange_3",
)


class AxiomViolation(ValueError):
    def __init__(self, axiom: str, witness: tuple[int, ...]) -> None:
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"biquandle axiom {axiom} fails at {witness}")


@dataclass(frozen=True)
class Biquandle:
    """Four operation tables; brace is kept when the tables were derived."""

    n: int
    under: OperationTable
    over: OperationTable
    under_inv: OperationTable
    over_inv: OperationTable
    brace: SkewBrace | None = None


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

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
    """Build the four derived tables of a brace and check every biquandle
    axiom on them.

    AxiomViolation is raised on the first failure; a validated brace can
    never trigger it.
    """
    n = brace.n
    c0 = _zero_based_rows(brace.circ.table)
    s0 = _zero_based_rows(brace.star.table)
    cinv0 = _inverse_map(brace.circ)
    sinv0 = _inverse_map(brace.star)
    xs = range(n)

    def table(value) -> OperationTable:
        return OperationTable(n, [[value(x, y) + 1 for y in xs] for x in xs])

    bq = Biquandle(
        n=n,
        under=table(lambda x, y: c0[cinv0[y]][s0[x][y]]),
        over=table(lambda x, y: c0[cinv0[y]][s0[y][x]]),
        under_inv=table(lambda x, y: s0[c0[y][x]][sinv0[y]]),
        over_inv=table(lambda x, y: s0[sinv0[y]][c0[y][x]]),
        brace=brace,
    )
    report = verify_biquandle_axioms(bq)
    if not report.passed:
        bad = report.failures[0]
        raise AxiomViolation(bad.name, bad.witness or ())
    return bq


Rows = list[tuple[int, ...]]  # 0-based


def _check_fixed_point(u: Rows, o: Rows) -> AxiomCheck:
    for x, (ux, ox) in enumerate(zip(u, o)):
        if ux[x] != ox[x]:
            return AxiomCheck("fixed_point", False, (x + 1,))
    return AxiomCheck("fixed_point", True, None)


def _check_right_invertible(u: Rows, o: Rows, ui: Rows, oi: Rows) -> AxiomCheck:
    # y -> x op y is inverted column by column: (x op y) op_inv y = x
    for x in range(len(u)):
        for y in range(len(u)):
            if not (
                u[ui[x][y]][y] == x
                and ui[u[x][y]][y] == x
                and o[oi[x][y]][y] == x
                and oi[o[x][y]][y] == x
            ):
                return AxiomCheck("right_invertible", False, (x + 1, y + 1))
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


def _check_exchange(u: Rows, o: Rows) -> list[AxiomCheck]:
    return [
        # (x<|y)<|(z<|y) == (x<|z)<|(y|>z)
        _check_law("exchange_1", u, u, u, u, u, o),
        # (x<|y)|>(z<|y) == (x|>z)<|(y|>z)
        _check_law("exchange_2", o, u, u, u, o, o),
        # (x|>y)|>(z|>y) == (x|>z)|>(y<|z)
        _check_law("exchange_3", o, o, o, o, o, u),
    ]


def verify_biquandle_axioms(bq: Biquandle) -> AxiomReport:
    """Exhaustively check all biquandle axioms on arbitrary four tables.

    Failures are report content, never exceptions, so corrupted tables can
    be inspected. Witnesses are the first counterexample in row-major order.
    """
    u = _zero_based_rows(bq.under)
    o = _zero_based_rows(bq.over)
    ui = _zero_based_rows(bq.under_inv)
    oi = _zero_based_rows(bq.over_inv)
    checks = [
        _check_fixed_point(u, o),
        _check_right_invertible(u, o, ui, oi),
        _check_pair_bijective(u, o),
    ]
    checks.extend(_check_exchange(u, o))
    return AxiomReport(checks=tuple(checks))


def yb_map(bq: Biquandle, x: int, y: int) -> tuple[int, int]:
    """S(x,y) = (y |> x, x <| y)."""
    return bq.over.value(y, x), bq.under.value(x, y)


def yb_map_inverse(bq: Biquandle, x: int, y: int) -> tuple[int, int]:
    """Closed-form inverse of S; requires the originating brace.

    S^-1(x,y) = (w^circ, w^circ circ x circ y^circ) with w = (x circ y^circ) star x^star.
    """
    if bq.brace is None:
        raise ValueError("yb_map_inverse needs a biquandle derived from a brace")
    br = bq.brace
    circ, star = br.circ, br.star
    w = star.op(circ.op(x, circ.inv(y)), star.inv(x))
    p = circ.inv(w)
    return p, circ.op(circ.op(p, x), circ.inv(y))


def r_map(brace: SkewBrace, x: int, y: int) -> tuple[int, int]:
    """r(x,y) = (a, a^circ circ x circ y) with a = x^star star (x circ y)."""
    circ, star = brace.circ, brace.star
    a = star.op(star.inv(x), circ.op(x, y))
    return a, circ.op(circ.op(circ.inv(a), x), y)
