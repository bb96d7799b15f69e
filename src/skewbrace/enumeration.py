"""Every coloring of a diagram, in lexicographic order, with no Python
object per coloring.

The count's search leaves partial colorings (`coloring._survivors`,
under the enumeration's budget) over the bound semiarcs, the ones some
plan row sets. Only those are sorted: each becomes a fixed-width byte
row over the bound semiarcs, one byte per color below 256, else two,
big-endian, so that the rows sort as bytes in numeric order. With k free
semiarcs the sort covers 1/n**k of the colorings.

The free semiarcs are then inserted one at a time, the last first. A
free semiarc takes each of its n colors once for every run of sorted
partial colorings that agree on every bound semiarc before it, and the
run's lines repeat once per color. Once the partial colorings all differ
before a free semiarc, as before a trailing `-`, they differ before
every later one too, and the columns from there on are built in one
piece: each partial coloring's lines run through the later free
semiarcs' colors in order, with its own colors repeated.

`enumerate_colorings` zips the columns into tuples, and `write_colorings`
formats them as the lines of `skewbrace color`, the one command that
imports this module.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from itertools import pairwise
from operator import iadd

from .coloring import Column, _column_type, _repeat, _survivors
from .gauss import LinkDiagram
from .plan import _compiled_for
from .tables import SkewBrace

__all__ = ["enumerate_colorings", "sorted_columns", "write_colorings"]

# colorings formatted per write by `write_colorings`
_COLOR_CHUNK = 1024


def enumerate_colorings(brace: SkewBrace, d: LinkDiagram) -> list[tuple[int, ...]]:
    """All colorings as 1-based semiarc tuples, in lexicographic order.
    Raises the budget errors of `sorted_columns`."""
    return list(zip(*sorted_columns(brace, d)))


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
    out: list[Column | None] = [None] * s
    for i, j in enumerate(bound):
        planes = [raw[w * i + q :: size] for q in range(w)]
        out[j] = column(planes[0] if w == 1 else map(_be16, *planes))
    # the partial colorings fall into runs that agree on every bound
    # semiarc before loose[t]; cuts[t] lists where the runs start and end
    cuts = [
        [0, *(r for r in range(1, m) if rows[r - 1][:c] != rows[r][:c]), m]
        for c in (w * (f - t) for t, f in enumerate(loose))
    ]
    del rows, raw
    digits = column(range(1, n + 1))
    # the runs only split as t grows; from loose[top] on they are single
    # partial colorings, each of which takes b lines of its own, over which
    # the free semiarcs from there on run through their colors in order
    k = len(loose)
    top = sum(len(c) <= m for c in cuts)
    b = n ** (k - top)
    if b > 1:
        for j in bound:
            out[j] = _repeat(out[j], b)
    for u in range(top, k):
        out[loose[u]] = _repeat(digits, n ** (k - u - 1)) * (m * n ** (u - top))
    # each free semiarc before those, the last first, takes each color on
    # one stretch of every run's lines, over which those lines repeat
    for t in reversed(range(top)):
        runs = list(pairwise([b * r for r in cuts[t]]))
        for j, c in enumerate(out):
            if c is not None:
                out[j] = reduce(iadd, (c[lo:hi] * n for lo, hi in runs))
        out[loose[t]] = reduce(iadd, (_repeat(digits, hi - lo) for lo, hi in runs))
        b *= n
    return out


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
