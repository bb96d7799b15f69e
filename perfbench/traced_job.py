"""Replay one job's public library calls under tracing.

Usage: python traced_job.py SPEC_JSON   (with the checkout's src importable)

Makes the calls the job's CLI command makes, in the same order, each in a
span, and adds per diagram the calls the per-layer metrics need: a warm
repeat of the count, a `jobs=2` count, a warm enumeration and one closure
call per distinct color set. Jobs other than `check-moves` also time one
seeded walk of their first diagram and check it round-trips through the
Gauss-code format. The results of all calls must agree; the spans, counts
and verdict are printed as one JSON line at the end.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

from skewbrace import (
    Polynomial1,
    Polynomial2,
    biquandle_closure,
    both_polynomials,
    build_constraints,
    counting_invariant,
    derived_biquandle,
    enumerate_colorings,
    format_gauss_code,
    group_closure,
    ideal_closure,
    load_brace_file,
    parse_gauss_code,
    parse_link_file,
)
from skewbrace.moves import random_diagram_walk

from spans import Tracer

# the call that does a command's coloring work in the CLI
MAIN_CALL = {
    "count": "coloring.count_cold",
    "sb": "invariants.both",
    "ideal": "invariants.both",
    "color": "coloring.enumerate",
    "batch": "invariants.both",
    "check-moves": "invariants.both",
}


class Mismatch(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Replay:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.tracer = Tracer(spec.get("job", 0))
        self.counts: Counter = Counter()

    def evaluate(self, brace, bq, d, main: str):
        sp, n = self.tracer.span, self.counts
        with sp("diagram"):
            with sp("gauss.constraints", cli=main == "coloring.enumerate"):
                system = build_constraints(d)
            with sp("coloring.count_cold", cli=main == "coloring.count_cold"):
                cold = counting_invariant(brace, d)
            with sp("coloring.count_warm"):
                warm = counting_invariant(brace, d)
            with sp("coloring.count_jobs2"):
                jobs2 = counting_invariant(brace, d, jobs=2)
            with sp("coloring.enumerate", cli=main == "coloring.enumerate"):
                colorings = enumerate_colorings(brace, d)
            sets = Counter(frozenset(c) for c in colorings)
            terms2: Counter = Counter()
            terms1: Counter = Counter()
            images = set()
            for colors, mult in sets.items():
                with sp("closures.biquandle"):
                    image = biquandle_closure(bq, colors)
                images.add(image)
                with sp("closures.group"):
                    a = len(group_closure(brace.circ, image))
                with sp("closures.group"):
                    b = len(group_closure(brace.star, image))
                with sp("closures.ideal"):
                    c = len(ideal_closure(brace, image))
                terms2[(a, b)] += mult
                terms1[c] += mult
            with sp("invariants.both", cli=main == "invariants.both"):
                sb, ideal = both_polynomials(brace, d)
        expect(
            cold == warm == jobs2 == len(colorings) == sb.specialize() == ideal.specialize(),
            f"counts disagree: {cold} {warm} {jobs2} {len(colorings)} {sb} {ideal}",
        )
        expect(
            sb == Polynomial2(dict(terms2)) and ideal == Polynomial1(dict(terms1)),
            "polynomials disagree with the replayed closures",
        )
        n["diagrams"] += 1
        n["gauss.crossings"] += len(system.constraints)
        n["gauss.semiarcs"] += system.semiarc_count
        n["coloring.colorings"] += len(colorings)
        n["closures.distinct_sets"] += len(sets)
        n["closures.distinct_images"] += len(images)
        return sb, ideal

    def run(self) -> None:
        spec, sp = self.spec, self.tracer.span
        command = spec["command"]
        main = MAIN_CALL[spec["inv_type"] or command]
        with sp("job"):
            with sp("tables.load", cli=True):
                brace = load_brace_file(spec["brace"])
            with sp("biquandle.derive", cli=True):
                bq = derived_biquandle(brace)
            with sp("gauss.parse", cli=True):
                if command == "batch":
                    with open(spec["link"], encoding="utf-8") as fh:
                        diagrams = list(parse_link_file(fh.read()).values())
                else:
                    diagrams = [parse_gauss_code(spec["link"])]
            base = [self.evaluate(brace, bq, d, main) for d in diagrams]
            rng = random.Random(spec["walk_seed"])
            if command == "check-moves":
                for t in range(spec["trials"]):
                    with sp("moves.walk", cli=True):
                        moved = random_diagram_walk(diagrams[0], rng, max_moves=3)
                    self.counts["moves.diagrams"] += 1
                    expect(self.evaluate(brace, bq, moved, main) == base[0], f"trial {t} not invariant")
            else:
                with sp("moves.walk"):
                    moved = random_diagram_walk(diagrams[0], rng, max_moves=3)
                self.counts["moves.diagrams"] += 1
                expect(moved.crossing_count > diagrams[0].crossing_count, "walk added no crossing")
                expect(parse_gauss_code(format_gauss_code(moved)) == moved, "walked code does not round-trip")


def main() -> int:
    replay = Replay(json.loads(sys.argv[1]))
    error = ""
    try:
        replay.run()
    except Mismatch as exc:
        error = str(exc)
    print(json.dumps({
        "ok": not error,
        "error": error,
        "spans": replay.tracer.spans,
        "counts": replay.counts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
