"""Biquandle structures derived from skew braces.

The derived operations on a brace (X, circ, star) are

    x under y = y^circ circ (x star y)        (written x <| y)
    x over y  = y^circ circ (y star x)        (written x |> y)

with right inverses

    x under_inv y = (y circ x) star y^star
    x over_inv y  = y^star star (y circ x)

where ^circ and ^star denote group inverses. All four tables are
materialized eagerly so later lookups are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# is_involutive, a property of the brace, lives in tables and stays
# importable from here
from .tables import _CHUNK_CELLS, OperationTable, SkewBrace, _inverse_map, is_involutive  # noqa: F401

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
    c0 = brace.circ.table.zero_based()
    s0 = brace.star.table.zero_based()
    cinv0 = _inverse_map(brace.circ)
    sinv0 = _inverse_map(brace.star)

    under0 = c0[cinv0[None, :], s0]
    over0 = c0[cinv0[None, :], s0.T]
    under_inv0 = s0[c0.T, sinv0[None, :]]
    over_inv0 = s0[sinv0[None, :], c0.T]

    bq = Biquandle(
        n=n,
        under=OperationTable(n, under0 + 1),
        over=OperationTable(n, over0 + 1),
        under_inv=OperationTable(n, under_inv0 + 1),
        over_inv=OperationTable(n, over_inv0 + 1),
        brace=brace,
    )
    report = verify_biquandle_axioms(bq)
    if not report.passed:
        bad = report.failures[0]
        raise AxiomViolation(bad.name, bad.witness or ())
    return bq


def _check_fixed_point(u: np.ndarray, o: np.ndarray) -> AxiomCheck:
    du = np.diagonal(u)
    do = np.diagonal(o)
    bad = np.flatnonzero(du != do)
    if bad.size:
        x = int(bad[0]) + 1
        return AxiomCheck("fixed_point", False, (x,))
    return AxiomCheck("fixed_point", True, None)


def _check_right_invertible(
    u: np.ndarray, o: np.ndarray, ui: np.ndarray, oi: np.ndarray
) -> AxiomCheck:
    n = u.shape[0]
    idx = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    ok = (
        (u[ui, cols] == idx)
        & (ui[u, cols] == idx)
        & (o[oi, cols] == idx)
        & (oi[o, cols] == idx)
    )
    if not ok.all():
        x, y = np.argwhere(~ok)[0]
        return AxiomCheck("right_invertible", False, (int(x) + 1, int(y) + 1))
    return AxiomCheck("right_invertible", True, None)


def _check_pair_bijective(u: np.ndarray, o: np.ndarray) -> AxiomCheck:
    # S(x,y) = (y |> x, x <| y); encode image pairs as flat codes
    n = u.shape[0]
    codes = (o.T * n + u).ravel()
    seen = np.zeros(n * n, dtype=bool)
    for i, code in enumerate(codes):
        if seen[code]:
            return AxiomCheck("pair_bijective", False, (i // n + 1, i % n + 1))
        seen[code] = True
    return AxiomCheck("pair_bijective", True, None)


def _check_exchange(u: np.ndarray, o: np.ndarray) -> list[AxiomCheck]:
    n = u.shape[0]
    ut = np.ascontiguousarray(u.T)
    ot = np.ascontiguousarray(o.T)
    block = max(1, _CHUNK_CELLS // (n * n))
    results: dict[str, AxiomCheck] = {}
    for lo in range(0, n, block):
        xs = slice(lo, min(lo + block, n))
        a_u = u[xs, :]
        a_o = o[xs, :]
        # law 1: (x<|y)<|(z<|y) == (x<|z)<|(y|>z)
        # law 2: (x<|y)|>(z<|y) == (x|>z)<|(y|>z)
        # law 3: (x|>y)|>(z|>y) == (x|>z)|>(y<|z)
        pairs = (
            ("exchange_1", u[a_u[:, :, None], ut[None, :, :]], u[a_u[:, None, :], o[None, :, :]]),
            ("exchange_2", o[a_u[:, :, None], ut[None, :, :]], u[a_o[:, None, :], o[None, :, :]]),
            ("exchange_3", o[a_o[:, :, None], ot[None, :, :]], o[a_o[:, None, :], u[None, :, :]]),
        )
        for name, lhs, rhs in pairs:
            if name in results:
                continue
            if not np.array_equal(lhs, rhs):
                x, y, z = np.argwhere(lhs != rhs)[0]
                results[name] = AxiomCheck(name, False, (int(x) + lo + 1, int(y) + 1, int(z) + 1))
    out = []
    for name in ("exchange_1", "exchange_2", "exchange_3"):
        out.append(results.get(name, AxiomCheck(name, True, None)))
    return out


def verify_biquandle_axioms(bq: Biquandle) -> AxiomReport:
    """Exhaustively check all biquandle axioms on arbitrary four tables.

    Failures are report content, never exceptions, so corrupted tables can
    be inspected. Witnesses are the first counterexample in row-major order.
    """
    u = bq.under.zero_based()
    o = bq.over.zero_based()
    ui = bq.under_inv.zero_based()
    oi = bq.over_inv.zero_based()
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
