"""In-memory spans and the per-layer arithmetic over them.

A span is `[id, parent, name, start, end, cli, job]`: `parent` is -1 for a
root, `cli` marks a call the CLI command itself makes (as opposed to the
extra warm and `jobs=2` calls the replay adds), and `job` identifies the
job. A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

ID, PARENT, NAME, START, END, CLI, JOB = range(7)


class Tracer:
    """Collects nested spans for one job; nothing is written until the end."""

    def __init__(self, job: int) -> None:
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, cli: bool = False):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, time.perf_counter(), 0.0, cli, self.job]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span of one job, by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - _covered(s[START], s[END], children[s[ID]])
        for s in spans
    }


def library_time(spans: list[list]) -> float:
    """Time the CLI's own library calls took in the replay.

    Where the CLI's first coloring call is not a count, the replay makes it
    after `count_cold` has compiled the plan, so the compile time, taken as
    cold minus warm count, is added back."""
    total = sum(s[END] - s[START] for s in spans if s[CLI])
    by_parent: dict[int, dict[str, list]] = defaultdict(dict)
    for s in spans:
        by_parent[s[PARENT]][s[NAME]] = s
    for kids in by_parent.values():
        cold, warm = kids.get("coloring.count_cold"), kids.get("coloring.count_warm")
        if cold is not None and warm is not None and not cold[CLI]:
            total += max(0.0, (cold[END] - cold[START]) - (warm[END] - warm[START]))
    return total


TIMED_LAYERS = (
    "tables.load",
    "biquandle.derive",
    "gauss.parse",
    "gauss.constraints",
    "moves.walk",
    "coloring.count_cold",
    "coloring.count_warm",
    "coloring.count_jobs2",
    "coloring.enumerate",
    "closures.biquandle",
    "closures.group",
    "closures.ideal",
    "invariants.both",
)
PER_DIAGRAM_COUNTS = ("gauss.crossings", "gauss.semiarcs", "coloring.colorings", "closures.distinct_sets", "closures.distinct_images")


def layer_metrics(traced: list[tuple[float, float, dict]]) -> dict[str, float]:
    """Per-layer metrics from (untraced wall, traced wall, report) per job.

    Times are self seconds per job; counts are per evaluated diagram, except
    `moves.diagrams`, which is per job."""
    jobs = len(traced)
    self_by_name: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    overheads = []
    for wall, _, report in traced:
        spans = report["spans"]
        st = self_times(spans)
        for s in spans:
            self_by_name[s[NAME]] += st[s[ID]]
        for name, value in report["counts"].items():
            counts[name] += value
        overheads.append(wall - library_time(spans))
    diagrams = max(counts["diagrams"], 1)
    out = {f"{name}_s": self_by_name[name] / jobs for name in TIMED_LAYERS}
    out.update({name: counts[name] / diagrams for name in PER_DIAGRAM_COUNTS})
    out["moves.diagrams"] = counts["moves.diagrams"] / jobs
    out["invariants.reuse_ratio"] = counts["coloring.colorings"] / max(counts["closures.distinct_sets"], 1)
    out["cli.overhead_s"] = statistics.median(overheads)
    out["trace.overhead_frac"] = sum(t for _, t, _ in traced) / sum(w for w, _, _ in traced)
    return out
