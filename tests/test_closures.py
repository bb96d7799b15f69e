from __future__ import annotations

import random
from itertools import combinations

import pytest

from skewbrace import (
    EmptyGenerators,
    biquandle_closure,
    enumerate_ideals,
    group_closure,
    ideal_closure,
    is_ideal,
)
from skewbrace.closures import _bits, _fixpoint
from skewbrace.coloring import derived_biquandle

from conftest import trivial_cyclic_brace

IDEALS = {
    "klein_z4": [(1,), (1, 3), (1, 2, 3, 4)],
    "z4_klein": [(1,), (1, 3), (1, 2, 3, 4)],
    "nab6": [(1,), (1, 2, 3), (1, 2, 3, 4, 5, 6)],
    "cyc6": [(1,), (1, 3, 5), (1, 2, 3, 4, 5, 6)],
    "dih8": [
        (1,),
        (1, 3),
        (1, 2, 3, 4),
        (1, 3, 5, 6),
        (1, 3, 7, 8),
        (1, 2, 3, 4, 5, 6, 7, 8),
    ],
    "inv8": [(1,), (1, 2, 3, 6), (1, 2, 3, 4, 5, 6, 7, 8)],
}


def _all_subsets(n):
    elems = range(1, n + 1)
    for k in range(1, n + 1):
        for combo in combinations(elems, k):
            yield frozenset(combo)


def _group_closed(group, t):
    return all(group.op(a, b) in t for a in t for b in t)


def _biquandle_closed(bq, t):
    return all(
        bq.under.value(a, b) in t and bq.over.value(a, b) in t
        for a in t
        for b in t
    )


def test_group_closure_anchor(braces):
    assert group_closure(braces["cyc6"].circ, {3}) == frozenset({1, 3, 5})


def test_biquandle_closure_anchor(braces):
    bq = derived_biquandle(braces["nab6"])
    assert biquandle_closure(bq, {4}) == frozenset({4, 5, 6})


def test_empty_generators_rejected(braces):
    brace = braces["nab6"]
    with pytest.raises(EmptyGenerators):
        group_closure(brace.circ, set())
    with pytest.raises(EmptyGenerators):
        biquandle_closure(derived_biquandle(brace), frozenset())
    with pytest.raises(EmptyGenerators):
        ideal_closure(brace, [])


def test_group_closure_is_minimal_closed_superset(braces):
    # oracle: intersection of every op-closed subset containing the seed
    for brace in braces.values():
        for group in (brace.circ, brace.star):
            closed = [t for t in _all_subsets(brace.n) if _group_closed(group, t)]
            for seed in _all_subsets(brace.n):
                supersets = [t for t in closed if seed <= t]
                oracle = frozenset.intersection(*supersets)
                assert group_closure(group, seed) == oracle


def test_biquandle_closure_is_minimal_closed_superset(braces):
    for brace in braces.values():
        bq = derived_biquandle(brace)
        closed = [t for t in _all_subsets(brace.n) if _biquandle_closed(bq, t)]
        for seed in _all_subsets(brace.n):
            supersets = [t for t in closed if seed <= t]
            oracle = frozenset.intersection(*supersets)
            assert biquandle_closure(bq, seed) == oracle


def test_ideal_closure_is_minimal_ideal_superset(braces):
    for brace in braces.values():
        closed = [t for t in _all_subsets(brace.n) if is_ideal(brace, t)]
        for seed in _all_subsets(brace.n):
            supersets = [t for t in closed if seed <= t]
            oracle = frozenset.intersection(*supersets)
            assert ideal_closure(brace, seed) == oracle


def test_ideal_closure_contains_identity(braces):
    for brace in braces.values():
        for x in range(1, brace.n + 1):
            assert 1 in ideal_closure(brace, {x})


def test_enumerate_ideals_frozen_lists(braces):
    for name, brace in braces.items():
        got = [tuple(sorted(i)) for i in enumerate_ideals(brace)]
        assert got == IDEALS[name]


def _powerset_ideals(brace):
    found = [t for t in _all_subsets(brace.n) if is_ideal(brace, t)]
    return sorted(found, key=lambda t: (len(t), sorted(t)))


def test_enumerate_ideals_matches_powerset_filter(braces):
    for brace in braces.values():
        assert enumerate_ideals(brace) == _powerset_ideals(brace)


@pytest.mark.parametrize("n", [18, 24])
def test_trivial_cyclic_ideals_are_the_subgroups(n):
    # the ideals are the subgroups dZ_n
    brace = trivial_cyclic_brace(n)
    want = [frozenset(range(1, n + 1, d)) for d in range(n, 0, -1) if n % d == 0]
    assert enumerate_ideals(brace) == want
    assert all(is_ideal(brace, t) for t in want)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fixpoint_matches_repeated_all_pairs_rounds(n):
    """On arbitrary pair tables, not only those of groups, biquandles and
    ideals, the closure equals rounds that pair every member with every
    member until nothing changes."""

    def reference(pair, m):
        while True:
            xs = [x for x in range(n) if m >> x & 1]
            new = m
            for x in xs:
                for y in xs:
                    new |= pair[x][y]
            if new == m:
                return m
            m = new

    rng = random.Random(n)
    for _ in range(40):
        pair = [
            [1 << rng.randrange(n) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        for m in range(1, 1 << n):
            assert _fixpoint(pair, m) == reference(pair, m)


def test_group_closure_matches_fixpoint(braces):
    """Products with the generators alone close a subset of a finite group
    to the same subgroup as the all-pairs fixpoint of its table."""
    for brace in braces.values():
        for group in (brace.circ, brace.star):
            pair = _bits(group.table)
            for m in range(1, 1 << brace.n):
                want = _fixpoint(pair, m)
                got = group_closure(group, {x + 1 for x in range(brace.n) if m >> x & 1})
                assert got == {x + 1 for x in range(brace.n) if want >> x & 1}
