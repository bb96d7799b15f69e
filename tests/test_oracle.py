"""The frontier kernel and both polynomials against the brute-force and
powerset oracles on random diagrams, and the kernel against itself under a
frontier budget small enough to force chunks."""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skewbrace import (
    Polynomial1,
    Polynomial2,
    SearchTooLarge,
    both_polynomials,
    brute_force_colorings,
    build_constraints,
    bundled_links,
    counting_invariant,
    derived_biquandle,
    enumerate_colorings,
    is_ideal,
    load_bundled_brace,
    parse_gauss_code,
)
from skewbrace import coloring, invariants

BRACE_NAMES = ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")
ORACLE_SPACE = 10**6

braces = {name: load_bundled_brace(name) for name in BRACE_NAMES}


def random_code(rng: random.Random, crossings: int, components: int) -> str:
    """A random signed Gauss code: every crossing once over and once under
    with one random sign, shuffled and cut into `components` components.
    A component left without crossings is written `-`.

    Every such code is a virtual link diagram (Kauffman 1999)."""
    tokens = []
    for cid in range(1, crossings + 1):
        sign = rng.choice("+-")
        tokens += [f"O{cid}{sign}", f"U{cid}{sign}"]
    rng.shuffle(tokens)
    cuts = sorted(rng.randint(0, len(tokens)) for _ in range(components - 1))
    bounds = [0, *cuts, len(tokens)]
    return " / ".join(" ".join(tokens[a:b]) or "-" for a, b in zip(bounds, bounds[1:]))


def has_pair_rows(brace, d) -> bool:
    plan = coloring._compiled_for(brace, d).plan
    return bool(((plan[:, 0] == 1) & (plan[:, 4] >= 4)).any())


def check_against_oracle(d) -> int:
    """Check every brace whose space n**s is small enough for the oracle;
    return how many of those plans use pair-solution rows."""
    s = build_constraints(d).semiarc_count
    pair_plans = 0
    for brace in braces.values():
        if brace.n**s > ORACLE_SPACE:
            continue
        cols = enumerate_colorings(brace, d)
        assert cols == sorted(brute_force_colorings(brace, d))
        assert counting_invariant(brace, d) == len(cols)
        pair_plans += has_pair_rows(brace, d)
    return pair_plans


@given(
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 4),
    components=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_brute_force_on_random_codes(rng, crossings, components):
    check_against_oracle(parse_gauss_code(random_code(rng, crossings, components)))


def test_pair_solution_rows_are_oracle_checked():
    rng = random.Random(2021)
    pair_plans = 0
    for _ in range(40):
        code = random_code(rng, rng.randint(2, 4), rng.randint(1, 3))
        pair_plans += check_against_oracle(parse_gauss_code(code))
    assert pair_plans >= 20


@cache
def closed_subsets(name: str) -> dict[str, list[frozenset[int]]]:
    """Every nonempty subset of the brace's carrier closed under each of
    the four closures, smallest first."""
    brace = braces[name]
    bq = derived_biquandle(brace)
    subsets = [
        frozenset(c)
        for k in range(1, brace.n + 1)
        for c in combinations(range(1, brace.n + 1), k)
    ]

    def closed(*tables):
        return [t for t in subsets if all(tb.value(x, y) in t for tb in tables for x in t for y in t)]

    return {
        "biquandle": closed(bq.under, bq.over),
        "circ": closed(brace.circ.table),
        "star": closed(brace.star.table),
        "ideal": [t for t in subsets if is_ideal(brace, t)],
    }


def reference_polynomials(name: str, d) -> tuple[Polynomial2, Polynomial1]:
    """Both polynomials from brute-force colorings, each closure taken as
    the smallest closed superset among all subsets."""
    closed = closed_subsets(name)

    def smallest(kind, seed):
        return next(t for t in closed[kind] if seed <= t)

    terms2: Counter = Counter()
    terms1: Counter = Counter()
    for colors, mult in Counter(map(frozenset, brute_force_colorings(braces[name], d))).items():
        image = smallest("biquandle", colors)
        terms2[len(smallest("circ", image)), len(smallest("star", image))] += mult
        terms1[len(smallest("ideal", image))] += mult
    return Polynomial2(dict(terms2)), Polynomial1(dict(terms1))


@given(
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 4),
    components=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_polynomials_match_powerset_oracle_on_random_codes(rng, crossings, components):
    d = parse_gauss_code(random_code(rng, crossings, components))
    s = build_constraints(d).semiarc_count
    for name, brace in braces.items():
        if brace.n**s <= ORACLE_SPACE:
            assert both_polynomials(brace, d) == reference_polynomials(name, d)


def test_profile_cache_is_keyed_by_brace():
    # nab6 and cyc6 close 12 of their color sets to different profiles,
    # {2} to (3, 3, 3) on nab6 and to (6, 6, 6) on cyc6
    rng = random.Random(11)
    codes = [
        parse_gauss_code(random_code(rng, rng.randint(0, 5), rng.randint(1, 3)))
        for _ in range(30)
    ]
    pair = (braces["nab6"], braces["cyc6"])
    invariants._image_profile.cache_clear()
    interleaved = [[both_polynomials(brace, d) for brace in pair] for d in codes]
    for d, got in zip(codes, interleaved):
        for brace, polys in zip(pair, got):
            invariants._image_profile.cache_clear()
            assert both_polynomials(brace, d) == polys


def chunk_cases():
    rng = random.Random(7)
    cases = [(b, d) for b in BRACE_NAMES for d in bundled_links().values()]
    for _ in range(30):
        code = random_code(rng, rng.randint(3, 8), rng.randint(1, 3))
        cases.append((rng.choice(BRACE_NAMES), parse_gauss_code(code)))
    return cases


def frontier_rows(cp) -> list[list[int]]:
    """The partial colorings the whole plan leaves, block after block."""
    return [row for block in coloring._frontiers(cp, len(cp.plan)) for row in block.tolist()]


def test_chunked_search_matches_unchunked(monkeypatch):
    chunked = 0
    for name, d in chunk_cases():
        brace = braces[name]
        cp = coloring._compiled_for(brace, d)
        assert len(list(coloring._frontiers(cp, len(cp.plan)))) <= 1
        whole = frontier_rows(cp)
        count = counting_invariant(brace, d)
        cols = enumerate_colorings(brace, d)

        # two partial colorings per chunk at every digit row that would
        # otherwise pass the budget
        two_rows = 2 * brace.n * cp.semiarc_count
        monkeypatch.setattr(coloring, "_FRONTIER_CELLS", two_rows)
        assert counting_invariant(brace, d) == count
        chunked += len(list(coloring._frontiers(cp, len(cp.plan)))) > 1
        # the chunks come out in the unchunked order
        assert frontier_rows(cp) == whole
        monkeypatch.setattr(
            coloring, "_FRONTIER_CELLS", max(two_rows, len(cols) * cp.semiarc_count)
        )
        assert enumerate_colorings(brace, d) == cols
        monkeypatch.undo()
    assert chunked >= 30


def test_budget_below_one_expansion_raises(monkeypatch):
    brace = braces["nab6"]
    trefoil = bundled_links()["trefoil"]
    s = build_constraints(trefoil).semiarc_count
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", brace.n * s - 1)
    with pytest.raises(SearchTooLarge):
        counting_invariant(brace, trefoil)
    with pytest.raises(SearchTooLarge):
        enumerate_colorings(brace, trefoil)


def test_enumeration_budget_counts_every_chunk(monkeypatch):
    brace = braces["dih8"]
    unlink3 = parse_gauss_code("- / - / -")
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", 3 * 8**3 - 1)
    assert counting_invariant(brace, unlink3) == 8**3
    with pytest.raises(SearchTooLarge):
        enumerate_colorings(brace, unlink3)
