from __future__ import annotations

import pytest

from skewbrace import (
    SearchTooLarge,
    brute_force_colorings,
    build_constraints,
    counting_invariant,
    enumerate_colorings,
    parse_gauss_code,
)
from skewbrace.moves import apply_r1

COUNTS = {
    "klein_z4": {"unknot": 4, "unlink2": 16, "vhopf": 12, "trefoil": 4, "fig8": 4},
    "z4_klein": {"unknot": 4, "unlink2": 16, "vhopf": 12, "trefoil": 4, "fig8": 4},
    "nab6": {"unknot": 6, "unlink2": 36, "vhopf": 24, "trefoil": 12, "fig8": 6},
    "cyc6": {"unknot": 6, "unlink2": 36, "vhopf": 24, "trefoil": 12, "fig8": 6},
    "dih8": {"unknot": 8, "unlink2": 64, "vhopf": 48, "trefoil": 8, "fig8": 8},
    "inv8": {"unknot": 8, "unlink2": 64, "vhopf": 26, "trefoil": 8, "fig8": 8},
}

TREFOIL_NAB6 = [
    (1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2, 2),
    (3, 3, 3, 3, 3, 3),
    (4, 4, 5, 6, 6, 5),
    (4, 5, 4, 5, 4, 5),
    (4, 6, 6, 4, 5, 5),
    (5, 4, 5, 4, 5, 4),
    (5, 5, 4, 6, 6, 4),
    (5, 6, 6, 5, 4, 4),
    (6, 4, 5, 5, 4, 6),
    (6, 5, 4, 4, 5, 6),
    (6, 6, 6, 6, 6, 6),
]

FIG8_NAB6 = [
    (1,) * 8,
    (2,) * 8,
    (3,) * 8,
    (4, 5, 4, 5, 4, 5, 4, 5),
    (5, 4, 5, 4, 5, 4, 5, 4),
    (6,) * 8,
]

VHOPF_INV8 = {
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
    (2, 1), (2, 2), (2, 3), (2, 6),
    (3, 1), (3, 2), (3, 3), (3, 6),
    (4, 1),
    (5, 1), (5, 5),
    (6, 1), (6, 2), (6, 3), (6, 6),
    (7, 1), (7, 7),
    (8, 1),
}

TREFOIL_INV8 = {
    (1,) * 6, (2,) * 6, (3,) * 6, (5,) * 6, (6,) * 6, (7,) * 6,
    (4, 8, 4, 8, 4, 8), (8, 4, 8, 4, 8, 4),
}

FIG8_INV8 = {
    (1,) * 8, (2,) * 8, (3,) * 8, (5,) * 8, (6,) * 8, (7,) * 8,
    (4, 8, 4, 8, 4, 8, 4, 8), (8, 4, 8, 4, 8, 4, 8, 4),
}


def test_counts_match_fixture_table(braces, links):
    for bn, per_link in COUNTS.items():
        for ln, expected in per_link.items():
            assert counting_invariant(braces[bn], links[ln]) == expected


def test_enumeration_agrees_with_count(braces, links):
    for bn, per_link in COUNTS.items():
        for ln, expected in per_link.items():
            cols = enumerate_colorings(braces[bn], links[ln])
            assert len(cols) == expected
            assert len(set(cols)) == expected
            assert cols == sorted(cols)


def test_trefoil_nab6_coloring_set(braces, links):
    assert enumerate_colorings(braces["nab6"], links["trefoil"]) == TREFOIL_NAB6


def test_fig8_nab6_coloring_set(braces, links):
    assert enumerate_colorings(braces["nab6"], links["fig8"]) == FIG8_NAB6


def test_vhopf_z4_klein_exclusions(braces, links):
    got = set(enumerate_colorings(braces["z4_klein"], links["vhopf"]))
    everything = {(a, b) for a in range(1, 5) for b in range(1, 5)}
    assert got == everything - {(2, 2), (2, 4), (4, 2), (4, 4)}


def test_inv8_coloring_sets(braces, links):
    assert set(enumerate_colorings(braces["inv8"], links["vhopf"])) == VHOPF_INV8
    assert set(enumerate_colorings(braces["inv8"], links["trefoil"])) == TREFOIL_INV8
    assert set(enumerate_colorings(braces["inv8"], links["fig8"])) == FIG8_INV8


def test_unknot_and_unlink_color_freely(braces, links):
    for brace in braces.values():
        n = brace.n
        assert enumerate_colorings(brace, links["unknot"]) == [
            (c,) for c in range(1, n + 1)
        ]
        assert enumerate_colorings(brace, links["unlink2"]) == [
            (a, b) for a in range(1, n + 1) for b in range(1, n + 1)
        ]


def test_kinked_unknot_still_counts_n(braces, links):
    for brace in braces.values():
        for sign in (1, -1):
            for over_first in (False, True):
                kinked = apply_r1(links["unknot"], (0, 0), sign=sign, over_first=over_first)
                assert counting_invariant(brace, kinked) == brace.n


def test_brute_force_agrees(braces, links):
    for brace in braces.values():
        for d in links.values():
            space = brace.n ** build_constraints(d).semiarc_count
            if space <= 10**6:
                assert sorted(brute_force_colorings(brace, d)) == enumerate_colorings(
                    brace, d
                )


def test_brute_force_limit(braces, links):
    with pytest.raises(ValueError):
        brute_force_colorings(braces["nab6"], links["trefoil"], limit=100)


def test_jobs_split_is_deterministic(braces, links):
    for jobs in (1, 2, 7):
        cols = enumerate_colorings(braces["dih8"], links["unlink2"], jobs=jobs)
        assert cols == enumerate_colorings(braces["dih8"], links["unlink2"])
    assert counting_invariant(braces["dih8"], links["vhopf"], jobs=5) == 48


def test_seed_space_guard(braces):
    # 21 free semiarcs: the count is exact past 64 bits, but the colorings
    # themselves would take 8**21 * 21 cells
    unlink21 = parse_gauss_code(" / ".join(["-"] * 21))
    assert counting_invariant(braces["inv8"], unlink21) == 8**21
    with pytest.raises(SearchTooLarge):
        enumerate_colorings(braces["inv8"], unlink21)
