"""Polynomial invariants refining the coloring count.

Each coloring contributes one monomial determined by closures of its
image, where the image of a coloring is the biquandle closure of the set
of colors it uses. Setting every variable to 1 recovers the coloring
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .closures import _biquandle_mask, _group_mask, _ideal_mask
from .coloring import _coloring_array, derived_biquandle
from .gauss import LinkDiagram, format_gauss_code
from .tables import SkewBrace

__all__ = [
    "Polynomial2",
    "Polynomial1",
    "ExponentProfile",
    "MoveTrialResult",
    "sb_polynomial",
    "ideal_polynomial",
    "both_polynomials",
    "specialize",
    "exponent_profile",
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


@dataclass(frozen=True)
class _Polynomial:
    """Integer polynomial in `variables`; no zero coefficients stored.

    A term's key is its exponent tuple, or the bare exponent when there
    is one variable.
    """

    variables: ClassVar[tuple[str, ...]] = ()
    terms: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {k: v for k, v in self.terms.items() if v != 0}
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

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))


class Polynomial2(_Polynomial):
    """Integer polynomial in u and v, keyed by (a, b) for u^a v^b."""

    variables = ("u", "v")


class Polynomial1(_Polynomial):
    """Integer polynomial in u alone, keyed by a for u^a."""

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


def both_polynomials(
    brace: SkewBrace, d: LinkDiagram, jobs: int | None = None
) -> tuple[Polynomial2, Polynomial1]:
    """Both enhancements from a single enumeration pass.

    Each coloring reduces to one key, the set of colors it uses packed
    little-endian into bytes (bit x - 1 for color x), and colorings with
    the same key share one monomial: the set's image (its biquandle
    closure) is measured three ways, the circ- and star-group closure sizes
    feeding the two-variable polynomial and the ideal closure size the
    one-variable one. Each distinct set is measured once through a bounded
    cache keyed by (brace, color set). `jobs` is accepted for
    compatibility and has no effect.
    """
    cols = _coloring_array(brace, d)
    bits = np.packbits(np.eye(brace.n, dtype=bool), axis=1, bitorder="little")
    keys = np.bitwise_or.reduce(bits[cols], axis=1)
    keys = keys.view(np.dtype((np.void, bits.shape[1]))).ravel()
    sets, counts = np.unique(keys, return_counts=True)
    terms2: dict[tuple[int, int], int] = {}
    terms1: dict[int, int] = {}
    for key, mult in zip(sets.tolist(), counts.tolist()):
        a, b, c = _image_profile(brace, int.from_bytes(key, "little"))
        terms2[(a, b)] = terms2.get((a, b), 0) + mult
        terms1[c] = terms1.get(c, 0) + mult
    return Polynomial2(terms2), Polynomial1(terms1)


def sb_polynomial(brace: SkewBrace, d: LinkDiagram, jobs: int | None = None) -> Polynomial2:
    """Two-variable enhancement: each coloring contributes u^a v^b where a
    and b are the sizes of the circ- and star-group closures of its image."""
    return both_polynomials(brace, d, jobs=jobs)[0]


def ideal_polynomial(brace: SkewBrace, d: LinkDiagram, jobs: int | None = None) -> Polynomial1:
    """One-variable enhancement: each coloring contributes u^a where a is
    the size of the ideal closure of its image."""
    return both_polynomials(brace, d, jobs=jobs)[1]


def specialize(p: Polynomial2 | Polynomial1) -> int:
    """Sum of coefficients, the value at u = v = 1."""
    return p.specialize()


@dataclass(frozen=True)
class ExponentProfile:
    uniform: bool
    counterexamples: tuple[tuple[int, int], ...]


def exponent_profile(p: Polynomial2) -> ExponentProfile:
    """Report whether every term has equal u- and v-exponents."""
    bad = tuple((a, b) for a, b, _ in p.sorted_terms() if a != b)
    return ExponentProfile(uniform=not bad, counterexamples=bad)


@dataclass(frozen=True)
class MoveTrialResult:
    trials: int
    all_invariant: bool
    base_sb: Polynomial2
    base_ideal: Polynomial1
    first_mismatch: int | None
    mismatch_code: str | None


def move_invariance_trials(
    brace: SkewBrace,
    d: LinkDiagram,
    trials: int,
    seed: int,
    max_moves: int = 3,
    jobs: int | None = None,
) -> MoveTrialResult:
    """Compare both polynomials across seeded random move rewrites of d."""
    import random

    from .moves import random_diagram_walk

    rng = random.Random(seed)
    base_sb, base_ideal = both_polynomials(brace, d, jobs=jobs)
    for t in range(trials):
        moved = random_diagram_walk(d, rng, max_moves=max_moves)
        moved_sb, moved_ideal = both_polynomials(brace, moved, jobs=jobs)
        if moved_sb != base_sb or moved_ideal != base_ideal:
            return MoveTrialResult(
                trials=trials,
                all_invariant=False,
                base_sb=base_sb,
                base_ideal=base_ideal,
                first_mismatch=t,
                mismatch_code=format_gauss_code(moved),
            )
    return MoveTrialResult(
        trials=trials,
        all_invariant=True,
        base_sb=base_sb,
        base_ideal=base_ideal,
        first_mismatch=None,
        mismatch_code=None,
    )
