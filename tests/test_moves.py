from __future__ import annotations

import random

import pytest

from skewbrace import (
    InvalidLocation,
    apply_r1,
    apply_r2,
    counting_invariant,
    format_gauss_code,
    gap_locations,
    parse_gauss_code,
    random_move,
)
from skewbrace.moves import random_diagram_walk

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


def test_moves_preserve_counting_invariant(braces, links):
    brace = braces["nab6"]
    base = counting_invariant(brace, links["trefoil"])
    rng = random.Random(2)
    d = links["trefoil"]
    for _ in range(5):
        d = random_move(d, rng)
        assert counting_invariant(brace, d) == base


def test_random_diagram_walk_is_exported():
    import skewbrace
    from skewbrace import moves

    assert skewbrace.random_diagram_walk is moves.random_diagram_walk
