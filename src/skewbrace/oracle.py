"""The brute-force coloring oracle, independent of the plan compiler.

It imports no kernel module and shares two things with the code it
checks: the semiarc numbering of `gauss.build_constraints`, which both
must agree on, and the derived biquandle (`biquandle.derived_biquandle`).
No CLI command imports this module: it serves the tests and the
benchmark's output checks, through `skewbrace.brute_force_colorings`.
"""

from __future__ import annotations

from .biquandle import derived_biquandle
from .gauss import LinkDiagram, build_constraints
from .tables import SkewBrace

__all__ = ["brute_force_colorings"]

_BRUTE_LIMIT = 10**6


def brute_force_colorings(
    brace: SkewBrace, d: LinkDiagram, limit: int = _BRUTE_LIMIT
) -> list[tuple[int, ...]]:
    """All n**s assignments that satisfy the raw crossing relations, as
    1-based semiarc tuples in lexicographic order.

    Independent of the plan compiler; useful as an oracle. Prefixes grow
    one semiarc at a time, in index order, trying every color on each, and
    a crossing's two relations are checked once its highest semiarc is
    set. Refuses search spaces above `limit`.
    """
    system = build_constraints(d)
    s, n = system.semiarc_count, brace.n
    total = n**s
    if total > limit:
        raise ValueError(f"brute force space {total} exceeds limit {limit}")

    bq = derived_biquandle(brace)
    # each table read as t[x][y] for colors 1..n, padded at row and entry 0
    u, o = ([(), *((0, *row) for row in t.rows)] for t in (bq.under, bq.over))
    # (table, a, b, dst): a coloring p needs table[p[a]][p[b]] == p[dst]
    checks: list[list[tuple[list, int, int, int]]] = [[] for _ in range(s)]
    for c in system.constraints:
        ui, oi, uo, oo = c.under_in, c.over_in, c.under_out, c.over_out
        if c.sign > 0:
            rels = ((u, ui, oo, uo), (o, oo, ui, oi))
        else:
            rels = ((u, uo, oi, ui), (o, oi, uo, oo))
        checks[max(ui, oi, uo, oo)].extend(rels)

    colors = range(1, n + 1)
    found: list[tuple[int, ...]] = [()]
    for level in checks:
        grown = (q + (x,) for q in found for x in colors)
        if level:
            grown = (
                p for p in grown if all(t[p[a]][p[b]] == p[dst] for t, a, b, dst in level)
            )
        found = list(grown)
    return found
