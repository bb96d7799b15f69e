"""The plan compiler: a diagram's crossings as a straight-line plan of
digit rows and single-lookup rows over one biquandle.

At a positive crossing the two derived operations tie the four incident
semiarcs together by

    out_u = in_u <| out_o        in_o = out_o |> in_u

and at a negative crossing the same two equations hold with incoming and
outgoing arcs exchanged:

    in_u = out_u <| in_o         out_o = in_o |> out_u

So (in_u, out_o) fix the other two arcs of a positive crossing and
(out_u, in_o) those of a negative one. Completing a crossing from its two
entering arcs (or its two leaving arcs) is a bijection of pairs under
these relations, which is what makes kink and poke insertions preserve
colorings inside any ambient diagram.

A digit row tries every value on one semiarc. A lookup row reads one
semiarc's value off its own table at the values of one or two bound
ones, and binds it: it writes the semiarc if no earlier row bound it,
and otherwise keeps only the partial colorings that agree. The compiler
completes one crossing at a time, by one rule: a crossing completes as
soon as one or two of its bound semiarcs, a basis, pick at most one of
its solutions. It solves each crossing pattern ahead of time, from the
two slots that fix the other two, and emits a filter that drops the
basis values no solution takes, if some are missing, then one lookup row
for each other semiarc, checks before writes. When no crossing left has
a basis, it places a digit at the crossing with the fewest open
semiarcs, so each one unlocks as much propagation as possible.

The plan is done once every crossing is complete. A semiarc that no
crossing touches, the one semiarc of a zero-crossing component, gets no
row: the plan lists it as free. A free semiarc takes each of the n colors
independently of every other semiarc, so each coloring the rows leave
completes in exactly n**(free semiarcs) ways. `coloring` runs the plans.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, product

from .biquandle import Biquandle, derived_biquandle
from .gauss import LinkDiagram, SemiarcSystem, build_constraints
from .tables import Record, SkewBrace

__all__: list[str] = []

Table = tuple[tuple[int, ...], ...]

# the crossing relations per sign, as (p, q, dst_u, dst_o) over the slot
# tuple (in_u, in_o, out_u, out_o): slot[dst_u] = slot[p] <| slot[q] and
# slot[dst_o] = slot[q] |> slot[p]
_RELATIONS = {1: (0, 3, 2, 1), -1: (2, 1, 0, 3)}


def _lookup(rows: Sequence[Sequence[int]]) -> Table:
    """A table read as T[x][y] for colors x, y in 1..n; row 0 and entry 0
    of every row are padding."""
    return ((0,) * (len(rows) + 1), *((0, *row) for row in rows))


@lru_cache(maxsize=256)
def _solutions(bq: Biquandle, sign: int, labels: tuple[int, int, int, int]) -> list[list[int]]:
    """A crossing's solutions, each the colors of its distinct semiarcs in
    label order; labels is the first-occurrence labeling of the crossing's
    slot tuple. Two slots, (in_u, out_o) at a positive crossing and
    (out_u, in_o) at a negative one, fix the other two, so the crossing
    has n*n solutions over its slots; those that give repeated semiarcs
    one color are the solutions over the labels."""
    u, o = _lookup(bq.under.rows), _lookup(bq.over.rows)
    p, q, dst_u, dst_o = _RELATIONS[sign]
    firsts = [labels.index(i) for i in range(max(labels) + 1)]
    sol = []
    for x, y in product(range(1, bq.n + 1), repeat=2):
        slot = [0] * 4
        slot[p], slot[q], slot[dst_u], slot[dst_o] = x, y, u[x][y], o[y][x]
        g = [slot[j] for j in firsts]
        if [g[lab] for lab in labels] == slot:
            sol.append(g)
    return sol


@lru_cache(maxsize=4096)
def _completion(
    bq: Biquandle,
    sign: int,
    labels: tuple[int, int, int, int],
    known_pattern: tuple[bool, ...],
) -> tuple | None:
    """The rows that complete a crossing whose labels known_pattern marks
    as bound, or None if no basis picks at most one solution.

    A basis is one bound label, or two, whose colors tell the crossing's
    solutions apart. Each row (a, b, dst, table) binds dst to table[a][b]
    over the basis labels a and b (a == b for one label). If the solutions
    miss some basis colors, the first row is a filter that drops them: it
    binds the basis label a to itself. Checks come before writes.
    """
    sol = _solutions(bq, sign, labels)
    known = [i for i, k in enumerate(known_pattern) if k]
    for a, b in [*zip(known, known), *combinations(known, 2)]:
        pick = {(g[a], g[b]): g for g in sol}
        if len(pick) == len(sol):
            break
    else:
        return None
    colors = range(1, bq.n + 1)
    checks = [o for o in known if o not in (a, b)]
    if len(pick) < bq.n ** len({a, b}):
        checks.insert(0, a)
    rows = []
    for o in checks + [o for o, k in enumerate(known_pattern) if not k]:
        # an entry no solution takes is 0, which no color equals
        tab = _lookup([[pick[x, y][o] if (x, y) in pick else 0 for y in colors] for x in colors])
        rows.append((a, b, o, tab))
    return tuple(rows)


class CompiledPlan(Record):
    """A diagram's search plan over one biquandle.

    `plan` has one tuple per step:

        (a,): digit row; try every value on semiarc a
        (a, b, dst, table): lookup row; v = table[vals[a]][vals[b]], then
            write vals[dst] = v if no earlier row bound dst, or else drop
            the partial coloring unless vals[dst] == v

    Colors are 1..n, as in the table files, and each table is a `_lookup`
    table from `_completion`. `free` lists the free semiarcs, the ones no
    row binds, in ascending order.
    """

    __slots__ = ("plan", "n", "semiarc_count", "free")


def _compile(bq: Biquandle, system: SemiarcSystem) -> CompiledPlan:
    # no tuple here comes from `tuple()` of a generator or a map: that
    # allocates a spare tuple and shrinks it, so the tuple misses the free
    # list when made but joins it when freed, and over a walk of many
    # diagrams the free lists would grow to their cap of 2,000 each
    known = [False] * system.semiarc_count
    rows: list[tuple] = []
    # the crossings not yet complete: each one's sign, its distinct
    # semiarcs in first-occurrence order and the label of each slot among
    # them
    todo = []
    for c in system.constraints:
        slots = (c.under_in, c.over_in, c.under_out, c.over_out)
        arcs = list(dict.fromkeys(slots))
        todo.append((c.sign, arcs, tuple([arcs.index(x) for x in slots])))
    while todo:
        left = []
        for crossing in todo:
            sign, arcs, labels = crossing
            kp = tuple([known[x] for x in arcs])
            if not any(kp) or (done := _completion(bq, sign, labels, kp)) is None:
                left.append(crossing)
                continue
            for a, b, dst, tab in done:
                rows.append((arcs[a], arcs[b], arcs[dst], tab))
                known[arcs[dst]] = True
        if len(left) == len(todo):
            # a digit at the tightest crossing propagates the furthest
            v = min(
                (len(o), min(o)) for _, arcs, _ in left if (o := [x for x in arcs if not known[x]])
            )[1]
            rows.append((v,))
            known[v] = True
        todo = left
    free = tuple([x for x, k in enumerate(known) if not k])
    return CompiledPlan(tuple(rows), bq.n, system.semiarc_count, free)


def _compiled_for(brace: SkewBrace, d: LinkDiagram) -> CompiledPlan:
    """A fresh plan for d. No cache is keyed by a diagram, so a loop over
    many diagrams holds one plan at a time; the caches the compile reads
    are keyed by the derived biquandle and a crossing pattern, and bounded
    by them."""
    bq = derived_biquandle(brace)
    return _compile(bq, build_constraints(d))
