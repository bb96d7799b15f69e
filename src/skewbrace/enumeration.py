"""Every coloring of a diagram, in lexicographic order, with no Python
object per coloring.

The count's search leaves partial colorings (`coloring._survivors`,
under the enumeration's budget). Only those are sorted: each becomes a
fixed-width byte row over its assigned semiarcs, one byte per color below
256, else two, big-endian, so that the rows sort as bytes in numeric
order. The plan's free semiarcs are filled in semiarc order, the last
first. The columns after a free semiarc are built once per run of sorted
partial colorings that agree on every semiarc before it, and tiled n
times, once per color of the free semiarc; a bound semiarc's column
repeats each partial coloring's color once per coloring it completes to.
Once the runs are single partial colorings, the columns after a free
semiarc are built whole. With k free semiarcs the sort covers 1/n**k of
the colorings.

`write_colorings` formats the columns as the lines of `skewbrace color`.
`coloring.enumerate_colorings` and `skewbrace color` import this module
when they run, so no other command compiles it.
"""

from __future__ import annotations

from collections.abc import Callable

from .coloring import Column, _column_type, _repeat, _survivors
from .gauss import LinkDiagram
from .plan import _compiled_for
from .tables import SkewBrace

__all__ = ["sorted_columns", "write_colorings"]

# colorings formatted per write by `write_colorings`
_COLOR_CHUNK = 1024


def sorted_columns(brace: SkewBrace, d: LinkDiagram) -> list[Column]:
    """All colorings as one column of colors per semiarc, in lexicographic
    order. Raises the budget errors of `_survivors`."""
    cp = _compiled_for(brace, d)
    n, s = cp.n, cp.semiarc_count
    column = _column_type(n)
    loose = cp.free
    bound = sorted(set(range(s)).difference(loose))
    # each partial coloring as a row of w bytes per bound semiarc
    w = 1 if n < 256 else 2
    rows: list[bytes] = []
    for m, cols in _survivors(cp):
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
    # they end; level 0 is one run
    k = len(loose)
    cut = [0, *(f - t for t, f in enumerate(loose)), len(bound)]
    ends = [[m]] + [
        [r for r in range(1, m) if rows[r - 1][:c] != rows[r][:c]] + [m]
        for c in map(w.__mul__, cut[1:-1])
    ]
    del rows, raw
    digits = column(range(1, n + 1))
    # the first level whose runs are all single survivors, if any: from
    # loose[top - 1] on, each survivor's colorings run through the free
    # colors in order, with each bound semiarc's color repeated, so the
    # level is built whole; every level after it has single runs too
    top = next((t for t in range(1, k + 1) if len(ends[t]) == m), k + 1)
    # the columns from loose[top - 1] on of level top, its runs one after
    # another: each survivor takes n**(k - top + 1) lines
    tail: list[Column] = []
    for x in range(loose[top - 1] if top <= k else s, s):
        if x in known:
            tail.append(_repeat(known[x], n ** (k - top + 1)))
        else:
            u = loose.index(x)
            tail.append(_repeat(digits, n ** (k - u - 1)) * (m * n ** (u - top + 1)))
    for t in reversed(range(top)):
        reps, level, lo = n ** (k - t), [], 0
        for hi in ends[t]:
            # each partial coloring of the run completes in reps ways, and
            # takes reps lines of level t + 1
            cols = [_repeat(known[j][lo:hi], reps) for j in bound[cut[t] : cut[t + 1]]]
            cols += tail if hi - lo == m else [c[lo * reps : hi * reps] for c in tail]
            if t:
                # loose[t - 1] takes each color on one stretch of the block,
                # over which the columns after it run through once
                cols = [_repeat(digits, (hi - lo) * reps), *(c * n for c in cols)]
            if level:
                for c, more in zip(level, cols):
                    c += more
            else:
                level = cols
            lo = hi
        tail = level
    return tail


def _be16(hi: int, lo: int) -> int:
    """A 16-bit color from its big-endian bytes."""
    return hi << 8 | lo


def write_colorings(cols: list[Column], n: int, write: Callable[[str], object]) -> None:
    """Write colorings over colors 1..n, given as one column per semiarc,
    as the lines of `skewbrace color`: a `# semiarc` header, then one line
    of space-separated colors per coloring."""
    s, m = len(cols), len(cols[0])
    # each color right-aligned in w places and padded with \0, deleted on
    # write: every line has one width, so each digit place of a column
    # fills a chunk with one strided slice
    w = len(str(n))
    names = [str(x).rjust(w, "\0").encode() for x in range(n + 1)]
    places = [bytes(name[p] for name in names).ljust(256, b"\0") for p in range(w)]
    size = s * (w + 1)
    write("# semiarc " + " ".join(str(i) for i in range(s)) + "\n")
    # a chunk of lines at a time, so no buffer holds the whole output
    for i in range(0, m, _COLOR_CHUNK):
        k = min(_COLOR_CHUNK, m - i)
        buf = bytearray(b" ") * (k * size)
        buf[size - 1 :: size] = b"\n" * k
        for j, col in enumerate(cols):
            part = col[i : i + k]
            for p, place in enumerate(places):
                digits = part.translate(place) if n < 256 else bytes(map(place.__getitem__, part))
                buf[j * (w + 1) + p :: size] = digits
        write(buf.translate(None, b"\0").decode())
