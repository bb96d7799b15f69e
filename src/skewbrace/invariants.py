"""Polynomial invariants refining the coloring count.

Each coloring contributes one monomial determined by closures of its
image, where the image of a coloring is the biquandle closure of the set
of colors it uses. Setting every variable to 1 recovers the coloring
count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import ClassVar

from .closures import _biquandle_mask, _group_mask, _ideal_mask
from .coloring import _color_set_counts
from .gauss import LinkDiagram, format_gauss_code
from .plan import derived_biquandle
from .tables import Record, SkewBrace

__all__ = [
    "Polynomial2",
    "Polynomial1",
    "MoveTrialResult",
    "sb_polynomial",
    "ideal_polynomial",
    "both_polynomials",
    "move_invariance_trials",
]


def _coeff_prefix(coeff: int) -> str:
    if coeff == 1:
        return ""
    if coeff == -1:
        return "-"
    return str(coeff)


def _power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


class _Polynomial(Record):
    """Integer polynomial in `variables`; no zero coefficients stored.

    A term's key is its exponent tuple, or the bare exponent when there
    is one variable.
    """

    __slots__ = ("terms",)
    variables: ClassVar[tuple[str, ...]] = ()

    def __init__(self, terms: dict | None = None) -> None:
        clean = {k: v for k, v in (terms or {}).items() if v != 0}
        object.__setattr__(self, "terms", clean)

    def sorted_terms(self) -> list[tuple[int, ...]]:
        """(*exponents, coeff) in canonical order: total degree, then the
        exponents, descending."""
        rows = [
            (*(k if isinstance(k, tuple) else (k,)), c) for k, c in self.terms.items()
        ]
        return sorted(rows, key=lambda r: (sum(r[:-1]), r[:-1]), reverse=True)

    def specialize(self) -> int:
        return sum(self.terms.values())

    def json_terms(self) -> list[dict[str, int]]:
        keys = (*self.variables, "coeff")
        return [dict(zip(keys, row)) for row in self.sorted_terms()]

    def __str__(self) -> str:
        parts = []
        for *exps, c in self.sorted_terms():
            body = "".join(_power(var, e) for var, e in zip(self.variables, exps))
            parts.append(_coeff_prefix(c) + body if body else str(c))
        return " + ".join(parts) if parts else "0"

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))


class Polynomial2(_Polynomial):
    """Integer polynomial in u and v, keyed by (a, b) for u^a v^b."""

    __slots__ = ()
    variables = ("u", "v")


class Polynomial1(_Polynomial):
    """Integer polynomial in u alone, keyed by a for u^a."""

    __slots__ = ()
    variables = ("u",)


# (brace, color set) profiles kept; a brace of order n has 2**n - 1 color
# sets, 666 for the six bundled braces together
_PROFILE_CACHE_SIZE = 4096


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _image_profile(brace: SkewBrace, colors: int) -> tuple[int, int, int]:
    """Closure sizes (a, b, c) for a coloring whose used colors are the
    bitmask `colors`, bit x - 1 for color x.

    The image is the biquandle closure of the colors; a and b are the
    sizes of its circ- and star-group closures, c that of its ideal
    closure.
    """
    image = _biquandle_mask(derived_biquandle(brace), colors)
    return (
        _group_mask(brace.circ, image).bit_count(),
        _group_mask(brace.star, image).bit_count(),
        _ideal_mask(brace, image).bit_count(),
    )


def both_polynomials(brace: SkewBrace, d: LinkDiagram) -> tuple[Polynomial2, Polynomial1]:
    """Both enhancements from one coloring search.

    Colorings that use the same set of colors share one monomial, so the
    search folds them into a count per set, keyed by the set as an int
    bitmask (bit x - 1 for color x), without making the colorings. Each
    set's image (its biquandle closure) is measured three ways, the circ-
    and star-group closure sizes feeding the two-variable polynomial and
    the ideal closure size the one-variable one. Each distinct set is
    measured once through a bounded cache keyed by (brace, color set).
    Raises the enumeration's SearchTooLarge past the same budget.
    """
    terms2: dict[tuple[int, int], int] = {}
    terms1: dict[int, int] = {}
    for key, mult in _color_set_counts(brace, d).items():
        a, b, c = _image_profile(brace, key)
        terms2[(a, b)] = terms2.get((a, b), 0) + mult
        terms1[c] = terms1.get(c, 0) + mult
    return Polynomial2(terms2), Polynomial1(terms1)


def sb_polynomial(brace: SkewBrace, d: LinkDiagram) -> Polynomial2:
    """Two-variable enhancement: each coloring contributes u^a v^b where a
    and b are the sizes of the circ- and star-group closures of its image."""
    return both_polynomials(brace, d)[0]


def ideal_polynomial(brace: SkewBrace, d: LinkDiagram) -> Polynomial1:
    """One-variable enhancement: each coloring contributes u^a where a is
    the size of the ideal closure of its image."""
    return both_polynomials(brace, d)[1]


class MoveTrialResult(Record):
    __slots__ = (
        "trials", "all_invariant", "base_sb", "base_ideal", "first_mismatch", "mismatch_code"
    )


def move_invariance_trials(
    brace: SkewBrace, d: LinkDiagram, trials: int, seed: int
) -> MoveTrialResult:
    """Compare both polynomials across seeded random walks of 1 to 3 moves
    from d."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    import random

    from .moves import random_diagram_walk

    rng = random.Random(seed)
    base_sb, base_ideal = both_polynomials(brace, d)
    first_mismatch = mismatch_code = None
    for t in range(trials):
        moved = random_diagram_walk(d, rng, max_moves=3)
        if both_polynomials(brace, moved) != (base_sb, base_ideal):
            first_mismatch, mismatch_code = t, format_gauss_code(moved)
            break
    return MoveTrialResult(
        trials=trials,
        all_invariant=first_mismatch is None,
        base_sb=base_sb,
        base_ideal=base_ideal,
        first_mismatch=first_mismatch,
        mismatch_code=mismatch_code,
    )
