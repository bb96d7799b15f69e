"""A brace's Yang-Baxter map r and two checks on its polynomials.
`specialize` gives a polynomial's value at u = v = 1, the coloring count,
and `exponent_profile` lists its terms u^a v^b with a != b. They serve
the library and the tests: no command imports this module, so no command
compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .tables import Record, SkewBrace

if TYPE_CHECKING:
    from .invariants import Polynomial1, Polynomial2

__all__ = ["r_map", "specialize", "ExponentProfile", "exponent_profile"]


def r_map(brace: SkewBrace, x: int, y: int) -> tuple[int, int]:
    """r(x,y) = (a, a^circ circ x circ y) with a = x^star star (x circ y)."""
    circ, star = brace.circ, brace.star
    a = star.op(star.inv(x), circ.op(x, y))
    return a, circ.op(circ.op(circ.inv(a), x), y)


def specialize(p: Polynomial2 | Polynomial1) -> int:
    """Sum of coefficients, the value at u = v = 1."""
    return p.specialize()


class ExponentProfile(Record):
    __slots__ = ("uniform", "counterexamples")


def exponent_profile(p: Polynomial2) -> ExponentProfile:
    """Report whether every term has equal u- and v-exponents."""
    bad = tuple((a, b) for a, b, _ in p.sorted_terms() if a != b)
    return ExponentProfile(uniform=not bad, counterexamples=bad)
