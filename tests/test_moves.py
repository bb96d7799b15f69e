from __future__ import annotations

import random
from itertools import product
from pathlib import Path

import pytest

from skewbrace import (
    InvalidLocation,
    LinkDiagram,
    apply_r1,
    apply_r2,
    counting_invariant,
    format_gauss_code,
    gap_locations,
    load_brace_file,
    parse_gauss_code,
    random_move,
)
from skewbrace.biquandle import derived_biquandle
from skewbrace.moves import random_diagram_walk
from skewbrace.plan import _solutions

UNKNOT = parse_gauss_code("-")
UNLINK2 = parse_gauss_code("- / -")


def test_gap_locations():
    assert gap_locations(UNKNOT) == [(0, 0)]
    assert gap_locations(UNLINK2) == [(0, 0), (1, 0)]
    trefoil = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
    assert gap_locations(trefoil) == [(0, p) for p in range(6)]


def test_r1_on_unknot():
    assert format_gauss_code(apply_r1(UNKNOT, (0, 0))) == "O1+ U1+"
    assert format_gauss_code(apply_r1(UNKNOT, (0, 0), sign=-1)) == "O1- U1-"
    assert (
        format_gauss_code(apply_r1(UNKNOT, (0, 0), over_first=False)) == "U1+ O1+"
    )


def test_r1_inserts_fresh_crossing_id():
    trefoil = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
    kinked = apply_r1(trefoil, (0, 2), sign=-1)
    assert format_gauss_code(kinked) == "O1+ U2+ O4- U4- O3+ U1+ O2+ U3+"


def test_r2_on_unlink():
    poked = apply_r2(UNLINK2, (0, 0), (1, 0))
    assert format_gauss_code(poked) == "O1+ O2- / U1+ U2-"
    anti = apply_r2(UNLINK2, (0, 0), (1, 0), parallel=False)
    assert format_gauss_code(anti) == "O1+ O2- / U2- U1+"
    under = apply_r2(UNLINK2, (0, 0), (1, 0), over_first=False, positive_first=False)
    assert format_gauss_code(under) == "U1- U2+ / O1- O2+"


def test_r2_same_component():
    trefoil = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
    for locs in (((0, 1), (0, 4)), ((0, 4), (0, 1))):
        poked = apply_r2(trefoil, *locs)
        assert poked.crossing_count == 5
        # output survives its own parse/format cycle
        assert parse_gauss_code(format_gauss_code(poked)) == poked


@pytest.mark.parametrize(
    "locs, parallel, code",
    [
        (((0, 1), (0, 4)), True, "O1+ O4+ O5- U2+ O3+ U1+ U4+ U5- O2+ U3+"),
        (((0, 1), (0, 4)), False, "O1+ O4+ O5- U2+ O3+ U1+ U5- U4+ O2+ U3+"),
        (((0, 4), (0, 1)), True, "O1+ U4+ U5- U2+ O3+ U1+ O4+ O5- O2+ U3+"),
        (((0, 4), (0, 1)), False, "O1+ U5- U4+ U2+ O3+ U1+ O4+ O5- O2+ U3+"),
    ],
)
def test_r2_same_component_inserts_at_both_original_gaps(locs, parallel, code):
    trefoil = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
    assert format_gauss_code(apply_r2(trefoil, *locs, parallel=parallel)) == code


def test_invalid_locations():
    with pytest.raises(InvalidLocation):
        apply_r1(UNKNOT, (1, 0))
    with pytest.raises(InvalidLocation):
        apply_r1(UNKNOT, (0, 1))
    with pytest.raises(InvalidLocation):
        apply_r2(UNLINK2, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        apply_r1(UNKNOT, (0, 0), sign=0)


def test_moved_diagrams_revalidate(links):
    rng = random.Random(11)
    for d in links.values():
        for _ in range(20):
            moved = random_move(d, rng)
            assert parse_gauss_code(format_gauss_code(moved)) == moved


def test_random_walk_is_seed_deterministic(links):
    a = random_diagram_walk(links["trefoil"], random.Random(5), max_moves=3)
    b = random_diagram_walk(links["trefoil"], random.Random(5), max_moves=3)
    assert a == b


@pytest.mark.parametrize("max_moves", [0, -2])
def test_a_walk_needs_at_least_one_move(links, max_moves):
    with pytest.raises(ValueError, match=f"^max_moves must be at least 1, got {max_moves}$"):
        random_diagram_walk(links["trefoil"], random.Random(0), max_moves=max_moves)


def test_moves_preserve_counting_invariant(braces, links):
    brace = braces["nab6"]
    base = counting_invariant(brace, links["trefoil"])
    rng = random.Random(2)
    d = links["trefoil"]
    for _ in range(5):
        d = random_move(d, rng)
        assert counting_invariant(brace, d) == base


def test_a_diagram_with_no_component_has_no_gap():
    empty = LinkDiagram(components=())
    for move in (random_move, random_diagram_walk):
        with pytest.raises(InvalidLocation, match="^the diagram has no gap$"):
            move(empty, random.Random(0))


def test_random_diagram_walk_is_exported():
    import skewbrace
    from skewbrace import moves

    assert skewbrace.random_diagram_walk is moves.random_diagram_walk


def crossing_maps(brace):
    """The kernel's crossing relations as maps of X^2, read off the
    solutions the plan compiler completes crossings by, over the slots
    (in_u, in_o, out_u, out_o): S+(l, r) = (out_u, out_o) of a positive
    crossing with in_o = l, in_u = r, and S-(l, r) = (out_o, out_u) of a
    negative one with in_u = l, in_o = r."""
    bq = derived_biquandle(brace)
    plus = {(i_o, i_u): (o_u, o_o) for i_u, i_o, o_u, o_o in _solutions(bq, 1, (0, 1, 2, 3))}
    minus = {(i_u, i_o): (o_o, o_u) for i_u, i_o, o_u, o_o in _solutions(bq, -1, (0, 1, 2, 3))}
    return plus, minus


# the 15 set partitions of a crossing's four slots, each as the
# first-occurrence labeling of the slot tuple (in_u, in_o, out_u, out_o)
SLOT_LABELINGS = [
    labels
    for labels in product(range(4), repeat=4)
    if all(lab <= max(labels[:i], default=-1) + 1 for i, lab in enumerate(labels))
]


def test_every_crossing_pattern_solves_as_a_direct_search(braces):
    """A crossing pattern's solutions are the colorings of its distinct
    semiarcs that satisfy the sign's two equations, found here by trying
    every coloring."""
    assert len(SLOT_LABELINGS) == 15
    cases = [*braces.values(), load_brace_file(str(Path(__file__).with_name("q8_witness.txt")))]
    for brace in cases:
        bq = derived_biquandle(brace)
        u, o = bq.under.value, bq.over.value

        def holds(sign, in_u, in_o, out_u, out_o):
            if sign > 0:
                return out_u == u(in_u, out_o) and in_o == o(out_o, in_u)
            return in_u == u(out_u, in_o) and out_o == o(in_o, out_u)

        for sign, labels in product((1, -1), SLOT_LABELINGS):
            found = [tuple(g) for g in _solutions(bq, sign, labels)]
            direct = {
                g
                for g in product(range(1, brace.n + 1), repeat=max(labels) + 1)
                if holds(sign, *[g[lab] for lab in labels])
            }
            assert len(found) == len(set(found))
            assert set(found) == direct, (brace.n, sign, labels)


def test_crossing_relations_satisfy_r2_and_r3(braces):
    """`moves` makes only R1 and R2 insertions, so R3 is checked on the
    crossing relations themselves: S+ is a bijection of X^2 that S-
    inverts (R2), and S1 S2 S1 = S2 S1 S2 on X^3 (R3)."""
    cases = [*braces.values(), load_brace_file(str(Path(__file__).with_name("q8_witness.txt")))]
    for brace in cases:
        plus, minus = crossing_maps(brace)
        pairs = list(product(range(1, brace.n + 1), repeat=2))
        assert sorted(plus.values()) == pairs
        assert all(minus[plus[p]] == p and plus[minus[p]] == p for p in pairs)

        def s1(x, y, z):
            return (*plus[x, y], z)

        def s2(x, y, z):
            return (x, *plus[y, z])

        for v in product(range(1, brace.n + 1), repeat=3):
            assert s1(*s2(*s1(*v))) == s2(*s1(*s2(*v)))
