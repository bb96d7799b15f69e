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

The plan runs breadth first over a frontier: an array of partial
colorings, one row per partial coloring and one column per semiarc. A
digit row of the plan repeats every partial coloring n times and tiles
the new digit, a relation row gathers columns through its table, and a
filter row drops the partial colorings it rejects. Digit rows come in a
fixed order, so the frontier is always in the lexicographic order of the
digits chosen so far. Counting stops at the last filter row: each partial
coloring left then completes in exactly n**(digit rows left) ways.

The frontier holds at most `_FRONTIER_CELLS` cells (partial colorings
times semiarcs). A digit row that would pass that bound splits the
frontier into ordered chunks and runs the rest of the plan on each chunk
in turn, depth first, which keeps the order. Enumeration raises
`SearchTooLarge` once the colorings it must return pass the same bound.
The polynomials read the colorings unsorted. Lexicographic order comes
from `_sorted_colorings`, one sort of the whole array: `enumerate_colorings`
turns its rows into tuples, and the CLI's `color` formats it as text
without a loop over colorings.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .biquandle import Biquandle, derive_biquandle
from .gauss import LinkDiagram, SemiarcSystem, build_constraints
from .tables import SkewBrace

__all__ = [
    "Coloring",
    "SearchTooLarge",
    "enumerate_colorings",
    "counting_invariant",
    "brute_force_colorings",
    "derived_biquandle",
]

Coloring = tuple[int, ...]

_BRUTE_LIMIT = 10**7
# the most cells (partial colorings times semiarcs) one frontier may hold,
# and the most an enumeration may return
_FRONTIER_CELLS = 1 << 22


class SearchTooLarge(ValueError):
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


@lru_cache(maxsize=64)
def derived_biquandle(brace: SkewBrace) -> Biquandle:
    """Cached derived biquandle of a validated brace."""
    return derive_biquandle(brace)


@lru_cache(maxsize=64)
def _base_tables(bq: Biquandle) -> np.ndarray:
    return np.stack(
        [
            np.ascontiguousarray(bq.under.zero_based()),
            np.ascontiguousarray(bq.over.zero_based()),
            np.ascontiguousarray(bq.under_inv.zero_based()),
            np.ascontiguousarray(bq.over_inv.zero_based()),
        ]
    )


@lru_cache(maxsize=4096)
def _pair_solution(
    bq: Biquandle,
    sign: int,
    labels: tuple[int, int, int, int],
    known_pattern: tuple[bool, ...],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Unique-completion tables for a crossing with two open semiarcs.

    labels is the first-occurrence labeling of the crossing's slot tuple,
    collapsing repeated semiarcs; known_pattern marks which labels are
    already assigned. Solves the crossing's two relations by brute force
    over all value combinations and returns one n-by-n lookup table per
    open label, keyed by the known labels' values. Returns None unless
    every combination determines the open pair uniquely.
    """
    n = bq.n
    tb = _base_tables(bq)
    m = max(labels) + 1
    parts = []
    sub = np.indices((n,) * (m - 1)).reshape(m - 1, -1)
    for v in range(n):
        g = np.concatenate([np.full((1, sub.shape[1]), v, dtype=np.int64), sub])
        ok = np.ones(g.shape[1], dtype=bool)
        for dst, t, a, b in _RELS[sign]:
            ok &= g[labels[dst]] == tb[t][g[labels[a]], g[labels[b]]]
        parts.append(g[:, ok])
    sol = np.concatenate(parts, axis=1)

    known = [i for i in range(m) if known_pattern[i]]
    open_ = [i for i in range(m) if not known_pattern[i]]
    if sol.shape[1] != n ** len(known):
        return None
    if len(known) == 1:
        key = sol[known[0]]
    else:
        key = sol[known[0]] * n + sol[known[1]]
    if np.bincount(key, minlength=n ** len(known)).max(initial=1) != 1:
        return None
    order = np.argsort(key)
    tp = sol[open_[0]][order]
    tq = sol[open_[1]][order]
    if len(known) == 1:
        tp = np.repeat(tp[:, None], n, axis=1)
        tq = np.repeat(tq[:, None], n, axis=1)
    else:
        tp = tp.reshape(n, n)
        tq = tq.reshape(n, n)
    return np.ascontiguousarray(tp), np.ascontiguousarray(tq)


@dataclass(frozen=True)
class CompiledPlan:
    """A diagram's search plan over one biquandle.

    `plan` has one int64 row [kind, a, b, dst, t, mode] per step:

        kind 0: digit row; try every value on semiarc a (b is the digit's
                ordinal)
        kind 1: relation row; v = tbl[t, vals[a], vals[b]], then write
                vals[dst] = v (mode 0) or drop the partial coloring unless
                vals[dst] == v (mode 1)

    `tbl` stacks U, O, Ui, Oi and then the pair-solution tables.
    """

    plan: np.ndarray
    tbl: np.ndarray
    n: int
    semiarc_count: int


@lru_cache(maxsize=512)
def _compile(bq: Biquandle, system: SemiarcSystem) -> CompiledPlan:
    s = system.semiarc_count
    crossings = [
        (c.sign, (c.under_in, c.over_in, c.under_out, c.over_out))
        for c in system.constraints
    ]
    known = [False] * s
    fired = [[False, False] for _ in crossings]
    rows: list[tuple[int, ...]] = []
    choice_arcs: list[int] = []
    extra: list[np.ndarray] = []

    def try_relation(ci: int, ri: int) -> bool:
        sign, pat = crossings[ci]
        dst, t, a, b = _RELS[sign][ri]
        sd, sa, sb = pat[dst], pat[a], pat[b]
        if known[sa] and known[sb]:
            rows.append((1, sa, sb, sd, t, 1 if known[sd] else 0))
            known[sd] = True
            fired[ci][ri] = True
            return True
        if known[sd] and known[sb]:
            rows.append((1, sd, sb, sa, _INV1[t], 0))
            known[sa] = True
            fired[ci][ri] = True
            return True
        return False

    def try_pair(ci: int) -> bool:
        sign, pat = crossings[ci]
        seen: dict[int, int] = {}
        labels = tuple(seen.setdefault(x, len(seen)) for x in pat)
        arcs = list(seen)
        kp = tuple(known[x] for x in arcs)
        open_arcs = [x for x, k in zip(arcs, kp) if not k]
        if len(open_arcs) != 2 or not any(kp):
            return False
        hit = _pair_solution(bq, sign, labels, kp)
        if hit is None:
            return False
        known_arcs = [x for x, k in zip(arcs, kp) if k]
        sa = known_arcs[0]
        sb = known_arcs[1] if len(known_arcs) > 1 else known_arcs[0]
        for dst, tab in zip(open_arcs, hit):
            rows.append((1, sa, sb, dst, 4 + len(extra), 0))
            extra.append(tab)
            known[dst] = True
        fired[ci][0] = fired[ci][1] = True
        return True

    def pick_choice() -> int:
        # a digit at the tightest crossing propagates the furthest
        best = None
        best_key = None
        for _, pat in crossings:
            open_arcs = sorted({x for x in pat if not known[x]})
            if not open_arcs:
                continue
            key = (len(open_arcs), open_arcs[0])
            if best_key is None or key < best_key:
                best_key = key
                best = open_arcs[0]
        if best is None:
            best = known.index(False)
        return best

    while True:
        progress = True
        while progress:
            progress = False
            for ci in range(len(crossings)):
                for ri in (0, 1):
                    if not fired[ci][ri] and try_relation(ci, ri):
                        progress = True
        if all(known):
            break
        if any(
            try_pair(ci)
            for ci in range(len(crossings))
            if not (fired[ci][0] and fired[ci][1])
        ):
            continue
        v = pick_choice()
        rows.append((0, v, len(choice_arcs), 0, 0, 0))
        choice_arcs.append(v)
        known[v] = True

    assert all(f0 and f1 for f0, f1 in fired)
    plan = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
    tbl = _base_tables(bq)
    if extra:
        tbl = np.concatenate([tbl, np.stack(extra)])
    return CompiledPlan(
        plan=plan,
        tbl=tbl,
        n=bq.n,
        semiarc_count=s,
    )


def _compiled_for(brace: SkewBrace, d: LinkDiagram) -> CompiledPlan:
    bq = derived_biquandle(brace)
    return _compile(bq, build_constraints(d))


def _frontiers(cp: CompiledPlan, stop: int) -> Iterator[np.ndarray]:
    """Run plan rows [0, stop) breadth first; yield the surviving partial
    colorings as (m, semiarc_count) blocks, in digit order."""
    n, s = cp.n, cp.semiarc_count
    rows = cp.plan[:stop].tolist()
    dtype = np.min_scalar_type(n - 1)
    # tables flattened to T[a * n + b]
    tbl = cp.tbl.reshape(len(cp.tbl), n * n).astype(dtype)
    digits = np.arange(n, dtype=dtype)
    step = _FRONTIER_CELLS // (n * s)

    def walk(front: np.ndarray, first: int) -> Iterator[np.ndarray]:
        for r in range(first, stop):
            kind, a, b, dst, t, mode = rows[r]
            m = front.shape[0]
            if kind == 0:
                if m > step:
                    if step == 0:
                        raise SearchTooLarge(
                            f"{n} partial colorings of {s} semiarcs pass the "
                            f"frontier budget of {_FRONTIER_CELLS} cells"
                        )
                    # each chunk passes this row within budget; the row's
                    # repeat copies the chunk before anything writes to it
                    for lo in range(0, m, step):
                        yield from walk(front[lo : lo + step], r)
                    return
                front = np.repeat(front, n, axis=0)
                front[:, a] = np.tile(digits, m)
                continue
            val = tbl[t].take(front[:, a] * np.intp(n) + front[:, b])
            if mode == 0:
                front[:, dst] = val
            else:
                front = front[front[:, dst] == val]
                if front.shape[0] == 0:
                    return
        yield front

    yield from walk(np.zeros((1, s), dtype=dtype), 0)


def counting_invariant(brace: SkewBrace, d: LinkDiagram, jobs: int | None = None) -> int:
    """Number of colorings, without materializing them.

    The search stops at the plan's last filter row. `jobs` is accepted
    for compatibility and has no effect.
    """
    cp = _compiled_for(brace, d)
    rows = cp.plan.tolist()
    stop = max((r + 1 for r, row in enumerate(rows) if row[0] == 1 and row[5] == 1), default=0)
    free = sum(row[0] == 0 for row in rows[stop:])
    return sum(f.shape[0] for f in _frontiers(cp, stop)) * cp.n**free


def _coloring_array(brace: SkewBrace, d: LinkDiagram) -> np.ndarray:
    """All colorings as one (m, semiarc_count) array of 0-based colors, in
    the frontier's order.

    Raises SearchTooLarge when the colorings would take more than
    `_FRONTIER_CELLS` cells.
    """
    cp = _compiled_for(brace, d)
    s = cp.semiarc_count
    blocks = []
    found = 0
    for front in _frontiers(cp, len(cp.plan)):
        found += front.shape[0]
        if found * s > _FRONTIER_CELLS:
            raise SearchTooLarge(
                f"more than {_FRONTIER_CELLS // s} colorings of {s} semiarcs "
                f"pass the budget of {_FRONTIER_CELLS} cells"
            )
        blocks.append(front)
    if not blocks:
        return np.zeros((0, s), dtype=np.min_scalar_type(cp.n - 1))
    return np.concatenate(blocks)


def _sorted_colorings(brace: SkewBrace, d: LinkDiagram) -> np.ndarray:
    """`_coloring_array` with its rows in lexicographic order."""
    out = _coloring_array(brace, d)
    return out[np.lexsort(out.T[::-1])]


def enumerate_colorings(
    brace: SkewBrace, d: LinkDiagram, jobs: int | None = None
) -> list[Coloring]:
    """All colorings as 1-based semiarc tuples, in lexicographic order.

    Raises SearchTooLarge when the colorings would take more than
    `_FRONTIER_CELLS` cells. `jobs` is accepted for compatibility and has
    no effect.
    """
    out = _sorted_colorings(brace, d).astype(np.int64) + 1
    return [tuple(row) for row in out.tolist()]


def brute_force_colorings(
    brace: SkewBrace, d: LinkDiagram, limit: int = _BRUTE_LIMIT
) -> list[Coloring]:
    """Filter all n**s assignments by the raw crossing relations.

    Independent of the plan compiler; useful as an oracle. Refuses search
    spaces above `limit`.
    """
    bq = derived_biquandle(brace)
    u = bq.under.zero_based()
    o = bq.over.zero_based()
    u_inv = bq.under_inv.zero_based()
    o_inv = bq.over_inv.zero_based()
    system = build_constraints(d)
    s = system.semiarc_count
    n = brace.n
    total = n**s
    if total > limit:
        raise ValueError(f"brute force space {total} exceeds limit {limit}")

    found = []
    chunk = 1 << 16
    div = np.array([n ** (s - 1 - i) for i in range(s)], dtype=np.int64)
    for start in range(0, total, chunk):
        seeds = np.arange(start, min(start + chunk, total), dtype=np.int64)
        vals = (seeds[:, None] // div[None, :]) % n
        ok = np.ones(seeds.shape[0], dtype=bool)
        for c in system.constraints:
            ui_, oi_ = vals[:, c.under_in], vals[:, c.over_in]
            uo_, oo_ = vals[:, c.under_out], vals[:, c.over_out]
            if c.sign > 0:
                ok &= u[ui_, oo_] == uo_
                ok &= o_inv[oi_, ui_] == oo_
            else:
                ok &= u_inv[ui_, oi_] == uo_
                ok &= o[oi_, uo_] == oo_
        found.extend(tuple(int(v) + 1 for v in row) for row in vals[ok])
    return found
