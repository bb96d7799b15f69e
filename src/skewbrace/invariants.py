"""Polynomial invariants refining the coloring count.

Each coloring contributes one monomial determined by closures of its
image, where the image of a coloring is the biquandle closure of the set
of colors it uses. Its circ- and star-group closures are one sub-skew-
brace, so both polynomials follow from one coloring count per sub-skew-
brace, all on the diagram's one plan. Setting every variable to 1
recovers the coloring count.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from typing import ClassVar

from .biquandle import derived_biquandle
from .closures import _fixpoint, _ideal_pairs, _joins, _members, _pairs
from .coloring import SearchTooLarge, _count, _survivors
from .gauss import LinkDiagram, format_gauss_code
from .plan import _compiled_for
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


# the most sub-skew-braces the polynomials count over: the trivial brace on
# (Z_2)^k has 374 for k = 5 and 2,825 for k = 6, whose trefoil took 0.12 s
# and 2.5 s
_MAX_SUB_BRACES = 1024


@lru_cache(maxsize=64)
def _sub_braces(brace: SkewBrace) -> tuple[tuple[int, int, tuple[int, ...] | None], ...]:
    """The sub-skew-braces G that colorings generate, ascending by size,
    the whole brace last: each one's mask, the size of its ideal closure
    I(G) and the colors in G, ascending, or None if x <| y = x |> y = x
    on G. Raises SearchTooLarge past `_MAX_SUB_BRACES` of them.

    A coloring's colors generate G, their closure under circ and star,
    which is the circ-group closure of their biquandle closure X (README,
    "Invariants"), and I(X) = I(G)."""
    bq = derived_biquandle(brace)
    found = _joins(
        partial(_fixpoint, _pairs(brace.circ.table, brace.star.table)), brace.n, _MAX_SUB_BRACES
    )
    if len(found) > _MAX_SUB_BRACES:
        raise SearchTooLarge(
            f"the brace has more than {_MAX_SUB_BRACES} sub-skew-braces,"
            " the most the polynomials count over"
        )
    found.discard(0)
    lattice = []
    for g in sorted(found, key=lambda g: (g.bit_count(), g)):
        xs = _members(g)
        trivial = all(t.rows[x][y] == x + 1 for t in (bq.under, bq.over) for x in xs for y in xs)
        colors = None if trivial else tuple([x + 1 for x in xs])
        lattice.append((g, _fixpoint(_ideal_pairs(brace), g).bit_count(), colors))
    return tuple(lattice)


def both_polynomials(brace: SkewBrace, d: LinkDiagram) -> tuple[Polynomial2, Polynomial1]:
    """Both enhancements from one coloring count per sub-skew-brace.

    A coloring whose colors generate the sub-skew-brace G contributes
    (uv)^|G| and u^|I(G)|. The colorings over G generate G or a smaller
    sub-brace, so taking away those that generate each smaller one, found
    first in size order, leaves G's (Moebius inversion). One plan counts
    them all, its digit rows trying only G's colors (README, "Invariants").
    The whole brace is counted first, by the enumeration's search, so it
    raises its SearchTooLarge; on a trivial biquandle each component takes
    one color."""
    cp = _compiled_for(brace, d)
    lattice = _sub_braces(brace)
    whole = sum(m for m, _ in _survivors(cp)) * cp.n ** len(cp.free)
    counts = [
        g.bit_count() ** d.component_count if colors is None else _count(cp, colors)
        for g, _, colors in lattice[:-1]
    ]
    exact: dict[int, int] = {}
    terms2, terms1 = Counter(), Counter()
    for (g, ideal, _), count in zip(lattice, [*counts, whole]):
        exact[g] = mult = count - sum(e for h, e in exact.items() if h & ~g == 0)
        terms2[g.bit_count(), g.bit_count()] += mult
        terms1[ideal] += mult
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
