"""A brace's Yang-Baxter map r, a bijection S of X^2 from its derived
biquandle, and two checks on its polynomials. `specialize` gives a
polynomial's value at u = v = 1, the coloring count, and
`exponent_profile` lists its terms u^a v^b with a != b. They serve the
library and the tests: no command imports this module, so no command
compiles it.
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
    """S(x,y) = (y |> x, x <| y), a bijection of X^2 whose inverse is
    `yb_map_inverse`. It fails the Yang-Baxter equation on nab6, cyc6 and
    inv8; the kernel's crossing maps are `plan._solutions`, which
    `test_crossing_relations_satisfy_r2_and_r3` checks for R2 and R3."""
    return bq.over.value(y, x), bq.under.value(x, y)


def yb_map_inverse(brace: SkewBrace, x: int, y: int) -> tuple[int, int]:
    """Closed-form inverse of `yb_map` on the brace's derived biquandle.

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
