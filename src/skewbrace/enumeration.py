"""Every coloring of a diagram, in lexicographic order, with no Python
object per coloring.

The count's search leaves partial colorings at the plan's last filter row
(`coloring._survivors`, under the enumeration's budget). Only those are
sorted: each becomes a fixed-width byte row over its assigned semiarcs,
one byte per color below 256, else two, big-endian, so that the rows sort
as bytes in numeric order. The semiarcs the digit rows after that row set
are free: no row reads them, each is a zero-crossing component, and its
colors are independent of the rest. They are filled in semiarc order, the
last first. The columns after a free semiarc are built once per run of
sorted partial colorings that agree on every semiarc before it, and tiled
n times, once per color of the free semiarc; a bound semiarc's column
repeats each partial coloring's color once per coloring it completes to.
With k free semiarcs the sort covers 1/n**k of the colorings.

`coloring.enumerate_colorings` and `skewbrace color` import this module
when they run, so no other command compiles it.
"""

from __future__ import annotations

from .coloring import Column, _column_type, _compiled_for, _count_split, _repeat, _survivors
from .gauss import LinkDiagram
from .tables import SkewBrace

__all__ = ["sorted_columns"]


def sorted_columns(brace: SkewBrace, d: LinkDiagram) -> list[Column]:
    """All colorings as one column of colors per semiarc, in lexicographic
    order. Raises the budget errors of `_survivors`."""
    cp = _compiled_for(brace, d)
    stop, free = _count_split(cp)
    n, s = cp.n, cp.semiarc_count
    column = _column_type(n)
    loose = sorted(row[1] for row in cp.plan[stop:])
    bound = sorted(set(range(s)).difference(loose))
    # each partial coloring as a row of w bytes per bound semiarc
    w = 1 if n < 256 else 2
    rows: list[bytes] = []
    for m, cols in _survivors(cp, stop, free):
        planes = [cols[j] for j in bound]
        if w == 2:
            planes = [bytes(x >> q & 255 for x in c) for c in planes for q in (8, 0)]
        rows += map(bytes, zip(*planes)) if planes else [b""] * m
    rows.sort()
    m, size, raw = len(rows), w * len(bound), b"".join(rows)
    known: dict[int, Column] = {}
    for i, j in enumerate(bound):
        planes = [raw[w * i + q :: size] for q in range(w)]
        known[j] = column(planes[0] if w == 1 else map(_be16, *planes))
    # level t covers the semiarcs after loose[t - 1], of which the bound
    # ones are bound[cut[t] : cut[t + 1]]; its runs are the partial
    # colorings that agree on bound[: cut[t]], and ends[t] lists where
    # they end
    k = len(loose)
    cut = [0, *(f - t for t, f in enumerate(loose)), len(bound)]
    ends = [
        [r for r in range(1, m) if rows[r - 1][:c] != rows[r][:c]] + [m]
        for c in map(w.__mul__, cut[:-1])
    ]
    del rows, raw
    digits = column(range(1, n + 1))
    # the runs of level t + 1, last first, as (end, columns from loose[t] on)
    below: list[tuple[int, list[Column]]] = []
    for t in reversed(range(k + 1)):
        reps, level, lo = n ** (k - t), [], 0
        for hi in ends[t]:
            # each partial coloring of the run completes in reps ways
            cols = [_repeat(known[j][lo:hi], reps) for j in bound[cut[t] : cut[t + 1]]]
            if t < k:
                # the runs of level t + 1 in this run, one after another
                tail = below.pop()[1]
                while below and below[-1][0] <= hi:
                    for c, more in zip(tail, below.pop()[1]):
                        c += more
                cols += tail
            if t:
                # loose[t - 1] takes each color on one stretch of the block,
                # over which the columns after it run through once
                cols = [_repeat(digits, (hi - lo) * reps), *(c * n for c in cols)]
            level.append((hi, cols))
            lo = hi
        below = level[::-1]
    return below[0][1]


def _be16(hi: int, lo: int) -> int:
    """A 16-bit color from its big-endian bytes."""
    return hi << 8 | lo
