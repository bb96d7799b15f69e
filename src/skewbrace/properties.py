"""A brace's Yang-Baxter maps and two checks on its polynomials.

r is the brace's set-theoretic solution of the Yang-Baxter equation, and S
the map of its derived biquandle. `specialize` gives a polynomial's value
at u = v = 1, the coloring count, and `exponent_profile` lists its terms
u^a v^b with a != b. They serve the library and the tests: no command
imports this module, so no command compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .tables import Record, SkewBrace

if TYPE_CHECKING:
    from .biquandle import Biquandle
    from .invariants import Polynomial1, Polynomial2

__all__ = ["r_map", "yb_map", "yb_map_inverse", "specialize", "ExponentProfile", "exponent_profile"]


def r_map(brace: SkewBrace, x: int, y: int) -> tuple[int, int]:
    """r(x,y) = (a, a^circ circ x circ y) with a = x^star star (x circ y)."""
    circ, star = brace.circ, brace.star
    a = star.op(star.inv(x), circ.op(x, y))
    return a, circ.op(circ.op(circ.inv(a), x), y)


def yb_map(bq: Biquandle, x: int, y: int) -> tuple[int, int]:
    """S(x,y) = (y |> x, x <| y)."""
    return bq.over.value(y, x), bq.under.value(x, y)


def yb_map_inverse(brace: SkewBrace, x: int, y: int) -> tuple[int, int]:
    """Closed-form inverse of the S of the brace's derived biquandle.

    S^-1(x,y) = (w^circ, w^circ circ x circ y^circ) with w = (x circ y^circ) star x^star.
    """
    circ, star = brace.circ, brace.star
    w = star.op(circ.op(x, circ.inv(y)), star.inv(x))
    p = circ.inv(w)
    return p, circ.op(circ.op(p, x), circ.inv(y))


def specialize(p: Polynomial2 | Polynomial1) -> int:
    """Sum of coefficients, the value at u = v = 1."""
    return p.specialize()


class ExponentProfile(Record):
    __slots__ = ("uniform", "counterexamples")


def exponent_profile(p: Polynomial2) -> ExponentProfile:
    """Report whether every term has equal u- and v-exponents."""
    bad = tuple((a, b) for a, b, _ in p.sorted_terms() if a != b)
    return ExponentProfile(uniform=not bad, counterexamples=bad)
