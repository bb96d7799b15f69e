"""Coloring search for link diagrams over a skew brace.

A coloring assigns a brace element to every semiarc. `plan` compiles
each diagram into a straight-line plan of digit rows and lookup rows,
and lists the free semiarcs that no row sets; this module runs it.

The plan runs breadth first over a frontier of partial colorings, held
as a dict of one column per bound semiarc: a `bytearray` of the colors
1..n, or for carriers of 256 elements or more an unsigned 16-bit
`array`, the type picked once from n. A digit row repeats every partial
coloring once per color it tries and tiles the new digit: every color,
or only a sub-skew-brace's, whose colors every row maps back into it. A
lookup row maps two columns through its table of row tuples into its
semiarc's column, or, if that is bound, drops the partial colorings
that disagree from every column. A free semiarc never gets a column.
Digit rows come in a fixed order, so the frontier is always in the
lexicographic order of the digits chosen so far. Each partial coloring
the whole plan leaves completes in exactly k**(free semiarcs) ways, for
k colors tried.

The frontier holds at most `_FRONTIER_CELLS` cells (partial colorings
times semiarcs). A digit row that would pass that bound cuts the frontier
into chunks that pass it within the bound and pushes them onto one stack
of blocks, the first chunk on top, which keeps the order. The count has
no other bound. Enumeration and the polynomials' count over the whole
brace run the count's search and raise `SearchTooLarge` once the
colorings the partial colorings found complete to would pass the same
bound. `enumeration`, which defines `enumerate_colorings`, then sorts
them and fills in the free semiarcs; `invariants` counts every
sub-skew-brace on one plan.

Everything here is plain Python over `bytearray`, `array` and tuples.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator, MutableSequence, Sequence
from functools import partial
from itertools import compress
from operator import eq, getitem

from .gauss import LinkDiagram
from .plan import CompiledPlan, _compiled_for
from .tables import DomainError, SkewBrace

__all__ = ["SearchTooLarge", "counting_invariant"]

# the most cells (partial colorings times semiarcs) one frontier may hold,
# and the most an enumeration may return
_FRONTIER_CELLS = 1 << 22


class SearchTooLarge(DomainError):
    """A coloring search needs more than the frontier budget allows."""


Column = MutableSequence[int]
# m partial colorings, as one column of m colors per bound semiarc
Block = tuple[int, dict[int, Column]]


def _column_type(n: int) -> Callable[..., Column]:
    """The column constructor for colors 1..n, from an iterable of colors:
    `bytearray` while a color fits a byte, else unsigned 16-bit arrays."""
    return bytearray if n < 256 else partial(array, "H")


def _repeat(col: Column, n: int) -> Column:
    """A new column with each entry of `col` repeated n times in a row."""
    out = col * n
    for k in range(n):
        out[k::n] = col
    return out


def _frontiers(cp: CompiledPlan, colors: Sequence[int]) -> Iterator[Block]:
    """Run the plan breadth first, its digit rows trying `colors`; yield
    the surviving partial colorings as `Block`s, in digit order."""
    n, s = len(colors), cp.semiarc_count
    rows = cp.plan
    column = _column_type(cp.n)
    digits = column(colors)
    step = _FRONTIER_CELLS // (n * s)
    # the blocks still to run, as (first row, m, columns), the next on top
    stack: list[tuple[int, int, dict[int, Column]]] = [(0, 1, {})]
    while stack:
        first, m, cols = stack.pop()
        for r in range(first, len(rows)):
            row = rows[r]
            if len(row) == 1:
                if m > step:
                    if step == 0:
                        raise SearchTooLarge(
                            f"{n} partial colorings of {s} semiarcs pass the"
                            f" frontier budget of {_FRONTIER_CELLS} cells"
                        )
                    # each chunk passes this row within budget
                    for lo in reversed(range(0, m, step)):
                        chunk = {x: c[lo : lo + step] for x, c in cols.items()}
                        stack.append((r, min(step, m - lo), chunk))
                    break
                cols = {x: _repeat(c, n) for x, c in cols.items()}
                cols[row[0]] = digits * m
                m *= n
                continue
            a, b, dst, tab = row
            val = map(getitem, map(tab.__getitem__, cols[a]), cols[b])
            if dst not in cols:
                cols[dst] = column(val)
            else:
                keep = bytes(map(eq, cols[dst], val))
                left = keep.count(1)
                if left == 0:
                    break
                if left < m:
                    m = left
                    cols = {x: column(compress(c, keep)) for x, c in cols.items()}
        else:
            yield m, cols


def counting_invariant(brace: SkewBrace, d: LinkDiagram, jobs: int | None = None) -> int:
    """Number of colorings, without materializing them: the partial
    colorings the plan leaves, each times n per free semiarc. `jobs` has
    no effect; `perfbench/traced_job.py` passes it, so it goes with the
    next benchmark change (ROADMAP item 1).
    """
    cp = _compiled_for(brace, d)
    return _count(cp, range(1, cp.n + 1))


def _count(cp: CompiledPlan, colors: Sequence[int]) -> int:
    """The colorings with every semiarc in `colors`: all n, or a
    sub-skew-brace's, which every row maps into itself or to 0."""
    return sum(m for m, _ in _frontiers(cp, colors)) * len(colors) ** len(cp.free)


def _survivors(cp: CompiledPlan) -> Iterator[Block]:
    """The count's search under the enumeration's budget: raises
    SearchTooLarge once the partial colorings found complete to colorings
    of more than `_FRONTIER_CELLS` cells."""
    n, s = cp.n, cp.semiarc_count
    # the cells of the colorings each partial coloring completes to
    cells = n ** len(cp.free) * s
    found = 0
    for m, cols in _frontiers(cp, range(1, n + 1)):
        found += m
        if found * cells > _FRONTIER_CELLS:
            raise SearchTooLarge(
                f"more than {_FRONTIER_CELLS // s} colorings of {s} semiarcs"
                f" pass the budget of {_FRONTIER_CELLS} cells"
            )
        yield m, cols
