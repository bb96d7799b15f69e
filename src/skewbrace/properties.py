"""The biquandle axiom checker and a brace's Yang-Baxter map r.

`verify_biquandle_axioms` checks every biquandle axiom on any two tables.
It serves the library and the tests: no command imports this module, so
no command compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .axioms import Rows, _first_difference, _gather, _zero_based_rows
from .tables import Record, SkewBrace

if TYPE_CHECKING:
    from .biquandle import Biquandle

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "verify_biquandle_axioms",
    "r_map",
]


class AxiomCheck(Record):
    __slots__ = ("name", "passed", "witness")


class AxiomReport(Record):
    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


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


def r_map(brace: SkewBrace, x: int, y: int) -> tuple[int, int]:
    """r(x,y) = (a, a^circ circ x circ y) with a = x^star star (x circ y)."""
    circ, star = brace.circ, brace.star
    a = star.op(star.inv(x), circ.op(x, y))
    return a, circ.op(circ.op(circ.inv(a), x), y)
