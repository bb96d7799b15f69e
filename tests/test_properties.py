from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from skewbrace import (
    Biquandle,
    GaussCodeError,
    OperationTable,
    biquandle_closure,
    counting_invariant,
    enumerate_colorings,
    format_gauss_code,
    group_closure,
    ideal_closure,
    load_bundled_brace,
    bundled_links,
    parse_brace_file,
    parse_gauss_code,
    verify_biquandle_axioms,
)
from skewbrace.biquandle import derived_biquandle
from skewbrace.moves import random_diagram_walk
from skewbrace.tables import ValidationError

BRACE_NAMES = ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")
LINK_NAMES = ("unknot", "unlink2", "vhopf", "trefoil", "fig8")

braces = {name: load_bundled_brace(name) for name in BRACE_NAMES}
links = bundled_links()


def _seed_subset(brace, data):
    n = brace.n
    size = data.draw(st.integers(min_value=1, max_value=n))
    return frozenset(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=size)))


@given(name=st.sampled_from(BRACE_NAMES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_closures_are_idempotent_and_contain_seed(name, data):
    brace = braces[name]
    seed = _seed_subset(brace, data)
    bq = derived_biquandle(brace)
    for close in (
        lambda s: group_closure(brace.circ, s),
        lambda s: group_closure(brace.star, s),
        lambda s: biquandle_closure(bq, s),
        lambda s: ideal_closure(brace, s),
    ):
        once = close(seed)
        assert seed <= once
        assert close(once) == once


@given(name=st.sampled_from(BRACE_NAMES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_closures_are_monotone(name, data):
    brace = braces[name]
    small = _seed_subset(brace, data)
    extra = _seed_subset(brace, data)
    big = small | extra
    bq = derived_biquandle(brace)
    assert group_closure(brace.circ, small) <= group_closure(brace.circ, big)
    assert biquandle_closure(bq, small) <= biquandle_closure(bq, big)
    assert ideal_closure(brace, small) <= ideal_closure(brace, big)


@given(
    link=st.sampled_from(LINK_NAMES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    moves=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_gauss_round_trip_on_move_walks(link, seed, moves):
    d = random_diagram_walk(links[link], random.Random(seed), max_moves=moves)
    assert parse_gauss_code(format_gauss_code(d)) == d


@given(
    name=st.sampled_from(BRACE_NAMES),
    table=st.integers(min_value=0, max_value=1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_any_single_entry_corruption_breaks_an_axiom(name, table, data):
    bq = derived_biquandle(braces[name])
    n = bq.n
    x = data.draw(st.integers(1, n))
    y = data.draw(st.integers(1, n))
    delta = data.draw(st.integers(1, n - 1))
    tables = [bq.under, bq.over]
    rows = [list(row) for row in tables[table].rows]
    rows[x - 1][y - 1] = (rows[x - 1][y - 1] - 1 + delta) % n + 1
    tables[table] = OperationTable(n, rows)
    corrupted = Biquandle(n=n, under=tables[0], over=tables[1])
    report = verify_biquandle_axioms(corrupted)
    assert not report.passed
    assert not report["right_invertible"].passed


@given(
    name=st.sampled_from(("klein_z4", "nab6")),
    link=st.sampled_from(LINK_NAMES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_small_move_walks_preserve_count(name, link, seed):
    brace = braces[name]
    base = counting_invariant(brace, links[link])
    moved = random_diagram_walk(links[link], random.Random(seed), max_moves=2)
    assert counting_invariant(brace, moved) == base


@given(
    name=st.sampled_from(BRACE_NAMES),
    link=st.sampled_from(LINK_NAMES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_enumeration_is_sorted_and_duplicate_free_on_walks(name, link, seed):
    brace = braces[name]
    moved = random_diagram_walk(links[link], random.Random(seed), max_moves=2)
    cols = enumerate_colorings(brace, moved)
    assert cols == sorted(set(cols))


def _edited(texts, split, alphabet):
    """Piece lists of a text from `texts`, cut by `split`, after up to
    three edits that each replace at most one piece with at most one
    piece from `alphabet`."""

    def edit(pieces_and_edits):
        pieces, edits = pieces_and_edits
        for i, width, new in edits:
            pieces[i : i + width] = new
        return pieces

    step = st.tuples(st.integers(0, 12), st.integers(0, 1), st.lists(alphabet, max_size=1))
    return st.tuples(st.sampled_from(texts).map(split), st.lists(step, max_size=3)).map(edit)


@given(
    tokens=_edited(
        ("", "-", "O1+ U1+ / -", "O1+ U2+ O3+ U1+ O2+ U3+ / U4- O4-"),
        str.split,
        st.sampled_from(("/", "-", "O1+", "U1+", "U1-", "O2+", "O0+", "X1")),
    ),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_gauss_texts_parse_or_raise_a_gauss_code_error(tokens, data):
    text = "".join(data.draw(st.text(" \t\n", max_size=2)) + tok for tok in tokens)
    try:
        d = parse_gauss_code(text)
    except GaussCodeError:
        return
    assert parse_gauss_code(format_gauss_code(d)) == d


@given(
    _edited(
        ("", "1\n1\n\n1", "2\n1 2\n2 1\n\n1 2\n2 1"),
        str.splitlines,
        st.sampled_from(
            ("1", " 2", "0", "x", "1 2", "2 1", "1 1", "1 2 1", "1 a", "", " ", "# c")
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_brace_texts_parse_or_raise_a_validation_error(lines):
    try:
        parse_brace_file("\n".join(lines))
    except ValidationError:
        pass
