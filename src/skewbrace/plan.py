"""The plan compiler: a diagram's crossing relations as a straight-line
plan of digit rows and single-lookup relation rows over one biquandle.

At a positive crossing the two derived operations tie the four incident
semiarcs together by

    out_u = in_u <| out_o        in_o = out_o |> in_u

and at a negative crossing the same two equations hold with incoming and
outgoing arcs exchanged. Completing a crossing from its two entering arcs
(or its two leaving arcs) is a bijection of pairs under these relations,
which is what makes kink and poke insertions preserve colorings inside
any ambient diagram.

A digit row tries every value on one semiarc. A relation row either
propagates one semiarc from two known ones or, once everything it touches
is assigned, filters. When a crossing is left with exactly two
undetermined semiarcs that no single relation can reach, the compiler
brute-solves the crossing's full relation system ahead of time and emits
lookup rows from the precomputed tables, provided the completion is
unique for every value combination; otherwise it spends a digit row.
Digits are placed at the crossing with the fewest open semiarcs so each
one unlocks as much propagation as possible.

The plan ends with the last crossing relation. A semiarc that no crossing
touches, the one semiarc of a zero-crossing component, gets no row: the
plan lists it as free. A free semiarc takes each of the n colors
independently of every other semiarc, so each coloring the rows leave
completes in exactly n**(free semiarcs) ways. `coloring` runs the plans.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import product

from .biquandle import Biquandle, derive_biquandle
from .gauss import LinkDiagram, SemiarcSystem, build_constraints
from .tables import Record, SkewBrace

__all__ = ["derived_biquandle"]

Table = tuple[tuple[int, ...], ...]

# crossing relations per sign, as (dst, table, src_a, src_b) over the slot
# tuple (in_u, in_o, out_u, out_o) and the table stack (U, O, Ui, Oi):
# vals[dst] = table[vals[src_a], vals[src_b]]
_RELS = {
    1: ((2, 0, 0, 3), (3, 3, 1, 0)),
    -1: ((2, 2, 0, 1), (3, 1, 1, 2)),
}
# table solving dst = T[a, b] for a, given (dst, b); valid because the
# columns of U/Ui and of O/Oi are mutually inverse permutations
_INV1 = (2, 3, 0, 1)
# the relations of each sign in an order that completes a crossing from its
# two entering slots (in_u, in_o): each relation reads only slots set before
_FROM_ENTERING = {1: _RELS[1][::-1], -1: _RELS[-1]}


def _lookup(rows: Sequence[Sequence[int]]) -> Table:
    """A table read as T[x][y] for colors x, y in 1..n; row 0 and entry 0
    of every row are padding."""
    return ((0,) * (len(rows) + 1), *((0, *row) for row in rows))


@lru_cache(maxsize=64)
def derived_biquandle(brace: SkewBrace) -> Biquandle:
    """Cached derived biquandle of a validated brace."""
    return derive_biquandle(brace)


@lru_cache(maxsize=64)
def _base_tables(bq: Biquandle) -> tuple[Table, ...]:
    """U, O, Ui and Oi as `_lookup` tables."""
    return tuple(_lookup(t.rows) for t in (bq.under, bq.over, bq.under_inv, bq.over_inv))


@lru_cache(maxsize=4096)
def _pair_solution(
    bq: Biquandle,
    sign: int,
    labels: tuple[int, int, int, int],
    known_pattern: tuple[bool, ...],
) -> tuple[Table, Table] | None:
    """Unique-completion tables for a crossing with two open semiarcs.

    labels is the first-occurrence labeling of the crossing's slot tuple,
    collapsing repeated semiarcs; known_pattern marks which labels are
    already assigned. Solves the crossing's two relations for every value
    of its two entering slots and returns one n-by-n lookup table per open
    label, keyed by the known labels' values. Returns None unless every
    combination determines the open pair uniquely.
    """
    tb = _base_tables(bq)
    colors = range(1, bq.n + 1)
    # the two entering slots fix the other two, so the crossing has n*n
    # solutions; those that give repeated semiarcs one value are the
    # solutions over the labels
    # the slot where each label first occurs
    firsts = [labels.index(i) for i in range(len(known_pattern))]
    sol = []
    for x, y in product(colors, colors):
        slot = [x, y, 0, 0]
        for dst, t, a, b in _FROM_ENTERING[sign]:
            slot[dst] = tb[t][slot[a]][slot[b]]
        g = [slot[j] for j in firsts]
        if [g[lab] for lab in labels] == slot:
            sol.append(g)
    known = [i for i, k in enumerate(known_pattern) if k]
    completion = {tuple(g[i] for i in known): g for g in sol}
    if len(sol) != bq.n ** len(known) or len(completion) != len(sol):
        return None
    # with one known label the table ignores its second index
    return tuple(
        _lookup([[completion[(x, y)[: len(known)]][o] for y in colors] for x in colors])
        for o, k in enumerate(known_pattern)
        if not k
    )


class CompiledPlan(Record):
    """A diagram's search plan over one biquandle.

    `plan` has one tuple (kind, a, b, dst, t, mode) per step:

        kind 0: digit row; try every value on semiarc a
        kind 1: relation row; v = tbl[t][vals[a]][vals[b]], then write
                vals[dst] = v (mode 0) or drop the partial coloring unless
                vals[dst] == v (mode 1)

    Colors are 1..n, as in the table files. `tbl` holds U, O, Ui, Oi and
    then the pair-solution tables, each a `_lookup` table. `free` lists
    the free semiarcs, the ones no row sets, in ascending order.
    """

    __slots__ = ("plan", "tbl", "n", "semiarc_count", "free")


def _compile(bq: Biquandle, system: SemiarcSystem) -> CompiledPlan:
    # no tuple here comes from `tuple()` of a generator or a map: that
    # allocates a spare tuple and shrinks it, so the tuple misses the free
    # list when made but joins it when freed, and over a walk of many
    # diagrams the free lists would grow to their cap of 2,000 each
    known = [False] * system.semiarc_count
    rows: list[tuple[int, ...]] = []
    tbl = list(_base_tables(bq))
    # per crossing: its sign, its distinct semiarcs in first-occurrence
    # order and the label of each slot among them
    crossings = []
    # the relations not yet in the plan, as (crossing, dst, table, a, b)
    pending = []
    for ci, c in enumerate(system.constraints):
        slots = (c.under_in, c.over_in, c.under_out, c.over_out)
        arcs = list(dict.fromkeys(slots))
        crossings.append((c.sign, arcs, tuple([arcs.index(x) for x in slots])))
        pending += [(ci, slots[d], t, slots[a], slots[b]) for d, t, a, b in _RELS[c.sign]]
    while pending:
        left = []
        for rel in pending:
            _, d, t, a, b = rel
            if known[a] and known[b]:
                rows.append((1, a, b, d, t, 1 if known[d] else 0))
                known[d] = True
            elif known[d] and known[b]:
                rows.append((1, d, b, a, _INV1[t], 0))
                known[a] = True
            else:
                left.append(rel)
        if len(left) < len(pending):
            pending = left
            continue
        for ci in dict.fromkeys(rel[0] for rel in pending):
            sign, arcs, labels = crossings[ci]
            kp = tuple([known[x] for x in arcs])
            if kp.count(False) == 2 and any(kp) and (hit := _pair_solution(bq, sign, labels, kp)):
                # each pair row reads the two known semiarcs, or the one twice
                given = [x for x in arcs if known[x]]
                for dst, tab in zip([x for x in arcs if not known[x]], hit):
                    rows.append((1, given[0], given[-1], dst, len(tbl), 0))
                    tbl.append(tab)
                    known[dst] = True
                pending = [rel for rel in pending if rel[0] != ci]
                break
        else:
            # a digit at the tightest crossing propagates the furthest
            tight = [
                (len(o), min(o))
                for _, arcs, _ in crossings
                if (o := [x for x in arcs if not known[x]])
            ]
            v = min(tight)[1]
            rows.append((0, v, 0, 0, 0, 0))
            known[v] = True
    return CompiledPlan(
        plan=tuple(rows),
        tbl=tuple(tbl),
        n=bq.n,
        semiarc_count=system.semiarc_count,
        free=tuple([x for x, k in enumerate(known) if not k]),
    )


def _compiled_for(brace: SkewBrace, d: LinkDiagram) -> CompiledPlan:
    """A fresh plan for d. No cache is keyed by a diagram, so a loop over
    many diagrams holds one plan at a time; the caches the compile reads
    are keyed by the brace and bounded by it."""
    bq = derived_biquandle(brace)
    return _compile(bq, build_constraints(d))
