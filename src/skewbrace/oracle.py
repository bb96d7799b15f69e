"""The brute-force coloring oracle, independent of the plan compiler.

No CLI command imports this module: it serves the tests and the
benchmark's output checks, through `skewbrace.brute_force_colorings`.
"""

from __future__ import annotations

from .coloring import Coloring
from .gauss import LinkDiagram, build_constraints
from .plan import Table, _lookup, derived_biquandle
from .tables import SkewBrace

__all__ = ["brute_force_colorings"]

_BRUTE_LIMIT = 10**6


def brute_force_colorings(
    brace: SkewBrace, d: LinkDiagram, limit: int = _BRUTE_LIMIT
) -> list[Coloring]:
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
    u, o = _lookup(bq.under.rows), _lookup(bq.over.rows)
    # (table, a, b, dst): a coloring p needs table[p[a]][p[b]] == p[dst]
    checks: list[list[tuple[Table, int, int, int]]] = [[] for _ in range(s)]
    for c in system.constraints:
        ui, oi, uo, oo = c.under_in, c.over_in, c.under_out, c.over_out
        if c.sign > 0:
            rels = ((u, ui, oo, uo), (o, oo, ui, oi))
        else:
            rels = ((u, uo, oi, ui), (o, oi, uo, oo))
        checks[max(ui, oi, uo, oo)].extend(rels)

    colors = range(1, n + 1)
    found: list[Coloring] = [()]
    for level in checks:
        grown = (q + (x,) for q in found for x in colors)
        if level:
            grown = (
                p for p in grown if all(t[p[a]][p[b]] == p[dst] for t, a, b, dst in level)
            )
        found = list(grown)
    return found
