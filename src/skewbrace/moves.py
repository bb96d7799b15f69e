"""Reidemeister move rewriting on signed Gauss codes.

Only the two moves that change the crossing count are generated; they are
used to produce families of equivalent diagrams for invariance testing.
Locations are cyclic inter-passage gaps: gap (c, p) of component c means
insertion before passage index p, with p in 0..k-1 for a component with
k >= 1 passages and p = 0 for a zero-crossing component.
"""

from __future__ import annotations

import random

from .gauss import LinkDiagram, Passage
from .tables import DomainError

__all__ = [
    "InvalidLocation",
    "gap_locations",
    "apply_r1",
    "apply_r2",
    "random_move",
    "random_diagram_walk",
]


class InvalidLocation(DomainError):
    pass


def gap_locations(d: LinkDiagram) -> list[tuple[int, int]]:
    """All legal insertion gaps of a diagram."""
    out = []
    for c, comp in enumerate(d.components):
        for p in range(max(1, len(comp))):
            out.append((c, p))
    return out


def _check_gap(d: LinkDiagram, location: tuple[int, int]) -> tuple[int, int]:
    c, p = location
    if not (0 <= c < len(d.components)):
        raise InvalidLocation(f"no component {c}")
    k = len(d.components[c])
    if not (0 <= p < max(1, k)):
        raise InvalidLocation(f"component {c} has no gap {p}")
    return c, p


def _next_id(d: LinkDiagram) -> int:
    ids = d.crossing_ids
    return (ids[-1] + 1) if ids else 1


def apply_r1(
    d: LinkDiagram, location: tuple[int, int], sign: int = 1, over_first: bool = True
) -> LinkDiagram:
    """Insert a kink: an adjacent over/under passage pair of one new crossing."""
    c, p = _check_gap(d, location)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    cid = _next_id(d)
    added = (Passage(cid, over_first, sign), Passage(cid, not over_first, sign))
    comps = list(d.components)
    comps[c] = comps[c][:p] + added + comps[c][p:]
    return LinkDiagram(tuple(comps))


def apply_r2(
    d: LinkDiagram,
    location1: tuple[int, int],
    location2: tuple[int, int],
    parallel: bool = True,
    over_first: bool = True,
    positive_first: bool = True,
) -> LinkDiagram:
    """Insert a cancelling pair of opposite-sign crossings across two gaps.

    The strand through location1 takes one role at both new crossings and
    the strand through location2 takes the other; `parallel` selects the
    relative orientation of the two inserted tracks. Both gaps must be
    distinct when they lie on the same component.
    """
    c1, p1 = _check_gap(d, location1)
    c2, p2 = _check_gap(d, location2)
    if (c1, p1) == (c2, p2):
        raise InvalidLocation("the two gaps must be distinct")
    a = _next_id(d)
    b = a + 1
    sa = 1 if positive_first else -1
    first = (Passage(a, over_first, sa), Passage(b, over_first, -sa))
    second = (Passage(a, not over_first, sa), Passage(b, not over_first, -sa))
    if not parallel:
        second = second[::-1]
    comps = list(d.components)
    # the later gap first, so an earlier gap on the same component keeps its index
    for (c, p), track in sorted((((c1, p1), first), ((c2, p2), second)), reverse=True):
        comps[c] = comps[c][:p] + track + comps[c][p:]
    return LinkDiagram(tuple(comps))


def random_move(d: LinkDiagram, rng: random.Random) -> LinkDiagram:
    """Apply one random R1 or R2 insertion; falls back to R1 when the
    diagram has no pair of distinct gaps."""
    gaps = gap_locations(d)
    if not gaps:
        raise InvalidLocation("the diagram has no gap")
    want_r2 = len(gaps) >= 2 and rng.random() < 0.5
    if want_r2:
        loc1, loc2 = rng.sample(gaps, 2)
        return apply_r2(
            d,
            loc1,
            loc2,
            parallel=rng.random() < 0.5,
            over_first=rng.random() < 0.5,
            positive_first=rng.random() < 0.5,
        )
    return apply_r1(
        d,
        rng.choice(gaps),
        sign=rng.choice((1, -1)),
        over_first=rng.random() < 0.5,
    )


def random_diagram_walk(
    d: LinkDiagram, rng: random.Random, max_moves: int = 3
) -> LinkDiagram:
    """Apply 1..max_moves random moves starting from d."""
    if max_moves < 1:
        raise ValueError(f"max_moves must be at least 1, got {max_moves}")
    out = d
    for _ in range(rng.randint(1, max_moves)):
        out = random_move(out, rng)
    return out
