"""Coloring enumeration for link diagrams over a skew brace.

A coloring assigns a brace element to every semiarc. At a positive
crossing the two derived operations tie the four incident semiarcs
together by

    out_u = in_u <| out_o        in_o = out_o |> in_u

and at a negative crossing the same two equations hold with incoming and
outgoing arcs exchanged. Completing a crossing from its two entering arcs
(or its two leaving arcs) is a bijection of pairs under these relations,
which is what makes kink and poke insertions preserve colorings inside
any ambient diagram.

The search compiles each diagram into a straight-line plan of digit rows
and single-lookup relation rows. A digit row tries every value on one
semiarc. A relation row either propagates one semiarc from two known ones
or, once everything it touches is assigned, filters. When a crossing is
left with exactly two undetermined semiarcs that no single relation can
reach, the compiler brute-solves the crossing's full relation system ahead
of time and emits lookup rows from the precomputed tables, provided the
completion is unique for every value combination; otherwise it spends a
digit row. Digits are placed at the crossing with the fewest open
semiarcs so each one unlocks as much propagation as possible.

The plan runs breadth first over a frontier of partial colorings, held
as one column per semiarc: a `bytearray` of the colors 1..n, or for
carriers of 256 elements or more an unsigned 16-bit `array`, the type
picked once from n. A digit row repeats every partial coloring n times
and tiles the new digit, a relation row maps two columns through a table
of row tuples, and a filter row drops the partial colorings it rejects
from every column. A column stays unset until a row assigns its
semiarc. Digit rows come in a fixed order, so the frontier is always in
the lexicographic order of the digits chosen so far. Counting stops at
the last filter row: each partial coloring left then completes in
exactly n**(digit rows left) ways.

The frontier holds at most `_FRONTIER_CELLS` cells (partial colorings
times semiarcs). A digit row that would pass that bound cuts the frontier
into chunks that pass it within the bound and pushes them onto one stack
of blocks, the first chunk on top, which keeps the order. The count has
no other bound. Enumeration and the polynomials run the count's search
to the last filter row and raise `SearchTooLarge` there once the
colorings the partial colorings left complete to would pass the same
bound. `enumeration.sorted_columns` then sorts them and fills in the
semiarcs of the digit rows after that row, and `_color_set_counts` folds
them into counts per used-color set without making the colorings.

Everything here is plain Python over `bytearray`, `array` and tuples.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Iterator, MutableSequence, Sequence
from functools import lru_cache, partial
from itertools import compress, product
from operator import eq, getitem, or_

from .biquandle import Biquandle, derive_biquandle
from .gauss import LinkDiagram, SemiarcSystem, build_constraints
from .tables import DomainError, Record, SkewBrace

__all__ = [
    "Coloring",
    "SearchTooLarge",
    "enumerate_colorings",
    "counting_invariant",
    "derived_biquandle",
]

Coloring = tuple[int, ...]

# the most cells (partial colorings times semiarcs) one frontier may hold,
# and the most an enumeration may return
_FRONTIER_CELLS = 1 << 22


class SearchTooLarge(DomainError):
    """A coloring search needs more than the frontier budget allows."""

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

Column = MutableSequence[int]
Table = tuple[tuple[int, ...], ...]
# m partial colorings, as one column of m colors per semiarc or None
Block = tuple[int, list[Column | None]]


def _column_type(n: int) -> Callable[..., Column]:
    """The column constructor for colors 1..n, from an iterable of colors:
    `bytearray` while a color fits a byte, else unsigned 16-bit arrays."""
    return bytearray if n < 256 else partial(array, "H")


def _lookup(rows: Sequence[Sequence[int]]) -> Table:
    """A table read as T[x][y] for colors x, y in 1..n; row 0 and entry 0
    of every row are padding."""
    return ((0,) * (len(rows) + 1), *((0, *row) for row in rows))


def _repeat(col: Column, n: int) -> Column:
    """A new column with each entry of `col` repeated n times in a row."""
    if len(col) < n:
        out = col[:0]
        for i in range(len(col)):
            out += col[i : i + 1] * n
        return out
    out = col * n
    for k in range(n):
        out[k::n] = col
    return out


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

        kind 0: digit row; try every value on semiarc a (b is the digit's
                ordinal)
        kind 1: relation row; v = tbl[t][vals[a]][vals[b]], then write
                vals[dst] = v (mode 0) or drop the partial coloring unless
                vals[dst] == v (mode 1)

    Colors are 1..n, as in the table files. `tbl` holds U, O, Ui, Oi and
    then the pair-solution tables, each a `_lookup` table.
    """

    __slots__ = ("plan", "tbl", "n", "semiarc_count")


def _compile(bq: Biquandle, system: SemiarcSystem) -> CompiledPlan:
    known = [False] * system.semiarc_count
    rows: list[tuple[int, ...]] = []
    tbl = list(_base_tables(bq))
    digits = 0
    # per crossing: its sign, its distinct semiarcs in first-occurrence
    # order and the label of each slot among them
    crossings = []
    # the relations not yet in the plan, as (crossing, dst, table, a, b)
    pending = []
    for ci, c in enumerate(system.constraints):
        slots = (c.under_in, c.over_in, c.under_out, c.over_out)
        arcs = list(dict.fromkeys(slots))
        crossings.append((c.sign, arcs, tuple(map(arcs.index, slots))))
        pending += [(ci, slots[d], t, slots[a], slots[b]) for d, t, a, b in _RELS[c.sign]]
    while pending or not all(known):
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
            kp = tuple(known[x] for x in arcs)
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
            v = min(tight)[1] if tight else known.index(False)
            rows.append((0, v, digits, 0, 0, 0))
            digits += 1
            known[v] = True
    return CompiledPlan(
        plan=tuple(rows), tbl=tuple(tbl), n=bq.n, semiarc_count=system.semiarc_count
    )


def _compiled_for(brace: SkewBrace, d: LinkDiagram) -> CompiledPlan:
    """A fresh plan for d. No cache is keyed by a diagram, so a loop over
    many diagrams holds one plan at a time; the caches the compile reads
    are keyed by the brace and bounded by it."""
    bq = derived_biquandle(brace)
    return _compile(bq, build_constraints(d))


def _too_large(n: int, s: int) -> SearchTooLarge:
    """The budget error of a search over n colors and s semiarcs: one digit
    row's expansion when n * s alone passes the budget, else the colorings."""
    if n * s > _FRONTIER_CELLS:
        what = f"{n} partial colorings of {s} semiarcs pass the frontier budget"
    else:
        what = f"more than {_FRONTIER_CELLS // s} colorings of {s} semiarcs pass the budget"
    return SearchTooLarge(f"{what} of {_FRONTIER_CELLS} cells")


def _frontiers(cp: CompiledPlan, stop: int) -> Iterator[Block]:
    """Run plan rows [0, stop) breadth first; yield the surviving partial
    colorings as blocks (m, columns) in digit order, with None for a
    semiarc no row has assigned yet."""
    n, s = cp.n, cp.semiarc_count
    rows, tbl = cp.plan, cp.tbl
    column = _column_type(n)
    digits = column(range(1, n + 1))
    step = _FRONTIER_CELLS // (n * s)
    # the blocks still to run, as (first row, m, columns), the next on top
    stack: list[tuple[int, int, list[Column | None]]] = [(0, 1, [None] * s)]
    while stack:
        first, m, cols = stack.pop()
        for r in range(first, stop):
            kind, a, b, dst, t, mode = rows[r]
            if kind == 0:
                if m > step:
                    if step == 0:
                        raise _too_large(n, s)
                    # each chunk passes this row within budget
                    for lo in reversed(range(0, m, step)):
                        chunk = [None if c is None else c[lo : lo + step] for c in cols]
                        stack.append((r, min(step, m - lo), chunk))
                    break
                cols = [None if c is None else _repeat(c, n) for c in cols]
                cols[a] = digits * m
                m *= n
            elif mode == 0:
                cols[dst] = column(map(getitem, map(tbl[t].__getitem__, cols[a]), cols[b]))
            else:
                val = map(getitem, map(tbl[t].__getitem__, cols[a]), cols[b])
                keep = bytes(map(eq, cols[dst], val))
                left = keep.count(1)
                if left == 0:
                    break
                if left < m:
                    m = left
                    cols = [None if c is None else column(compress(c, keep)) for c in cols]
        else:
            yield m, cols


def _count_split(cp: CompiledPlan) -> tuple[int, int]:
    """The row after the plan's last relation row, and the digit rows after
    it: no row reads their semiarcs, so each partial coloring left there
    completes in exactly n**free ways, one per choice of their colors.
    In the plans `_compile` makes, that relation row is a filter row (the
    oracle tests check it) and those digits are on zero-crossing
    components."""
    rows = cp.plan
    stop = max((r + 1 for r, row in enumerate(rows) if row[0] == 1), default=0)
    return stop, len(rows) - stop


def counting_invariant(brace: SkewBrace, d: LinkDiagram, jobs: int | None = None) -> int:
    """Number of colorings, without materializing them.

    The search stops at the plan's last filter row. `jobs` is accepted
    for compatibility and has no effect.
    """
    cp = _compiled_for(brace, d)
    stop, free = _count_split(cp)
    return sum(m for m, _ in _frontiers(cp, stop)) * cp.n**free


def _survivors(cp: CompiledPlan, stop: int, free: int) -> Iterator[Block]:
    """The count's search, rows [0, stop), under the enumeration's budget:
    raises SearchTooLarge once the partial colorings found complete to
    colorings of more than `_FRONTIER_CELLS` cells."""
    n, s = cp.n, cp.semiarc_count
    found = 0
    for m, cols in _frontiers(cp, stop):
        found += m
        if found * n**free * s > _FRONTIER_CELLS:
            raise _too_large(n, s)
        yield m, cols


def _color_set_counts(brace: SkewBrace, d: LinkDiagram) -> dict[int, int]:
    """How many colorings use each set of colors, keyed by the set as a
    bitmask (bit x - 1 for color x), without making the colorings.

    Each partial coloring `_survivors` leaves ORs its columns into its
    mask, under the enumeration's budget. Every digit row after the last
    filter row only widens the masks, since no row reads its semiarc.
    """
    cp = _compiled_for(brace, d)
    stop, free = _count_split(cp)
    bit = [0] + [1 << x for x in range(cp.n)]
    counts: dict[int, int] = Counter()
    for m, cols in _survivors(cp, stop, free):
        keys = [0] * m
        for col in cols:
            if col is not None:
                keys = list(map(or_, keys, map(bit.__getitem__, col)))
        counts.update(keys)
    for _ in range(free):
        wider: dict[int, int] = {}
        for key, c in counts.items():
            for b in bit[1:]:
                wider[key | b] = wider.get(key | b, 0) + c
        counts = wider
    return counts


def enumerate_colorings(
    brace: SkewBrace, d: LinkDiagram, jobs: int | None = None
) -> list[Coloring]:
    """All colorings as 1-based semiarc tuples, in lexicographic order.

    Raises SearchTooLarge when the colorings would take more than
    `_FRONTIER_CELLS` cells. `jobs` is accepted for compatibility and has
    no effect.
    """
    from .enumeration import sorted_columns

    return list(zip(*sorted_columns(brace, d)))
