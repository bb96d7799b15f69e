"""The frontier kernel and both polynomials against the brute-force and
powerset oracles on random diagrams, and the kernel against itself under a
frontier budget small enough to force chunks."""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from skewbrace import (
    Polynomial1,
    Polynomial2,
    SearchTooLarge,
    biquandle_closure,
    both_polynomials,
    brute_force_colorings,
    build_constraints,
    bundled_links,
    counting_invariant,
    derived_biquandle,
    enumerate_colorings,
    format_brace_file,
    group_closure,
    ideal_closure,
    is_ideal,
    load_bundled_brace,
    parse_gauss_code,
)
from skewbrace import coloring, enumeration, invariants
from skewbrace.bundled import bundled_brace_path
from skewbrace.cli import main
from skewbrace.plan import CompiledPlan, _compiled_for, _lookup

from conftest import perfbench_module, random_code, trivial_cyclic_brace

BRACE_NAMES = ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")
ORACLE_SPACE = 10**6

braces = {name: load_bundled_brace(name) for name in BRACE_NAMES}


def basis_kinds(brace, d) -> tuple[bool, bool]:
    """Whether d's plan completes some crossing from one semiarc (a row
    with a == b), and whether it drops basis values no solution takes (a
    filter row, the only kind with dst == a)."""
    rows = [row for row in _compiled_for(brace, d).plan if len(row) == 4]
    return any(a == b for a, b, _, _ in rows), any(dst == a for a, _, dst, _ in rows)


def check_plan_structure(cp, system) -> None:
    """Each row reads only semiarcs that earlier rows wrote; digit rows
    write a new semiarc; every row is a digit row of one semiarc or a
    lookup row with an (n + 1) x (n + 1) table, and every lookup row reads
    and binds semiarcs of a single crossing.
    The written semiarcs and the free ones, exactly those no crossing
    touches, partition the semiarcs. A later row reads every digit row's
    semiarc."""
    crossings = [
        {c.under_in, c.over_in, c.under_out, c.over_out} for c in system.constraints
    ]
    written, digits, reads = set(), [], []
    for row in cp.plan:
        if len(row) == 1:
            (a,) = row
            assert a not in written
            written.add(a)
            digits.append((len(reads), a))
            reads.append(set())
            continue
        a, b, dst, table = row
        assert {a, b} <= written
        assert len(table) == cp.n + 1 and {len(t) for t in table} == {cp.n + 1}
        assert any({a, b, dst} <= arcs for arcs in crossings)
        if dst in written:
            reads.append({a, b, dst})
        else:
            written.add(dst)
            reads.append({a, b})
    s = system.semiarc_count
    touched = set().union(*crossings)
    assert list(cp.free) == sorted(set(range(s)) - touched)
    assert written.isdisjoint(cp.free) and written | set(cp.free) == set(range(s))
    for r, x in digits:
        assert any(x in later for later in reads[r + 1 :])


def check_against_oracle(d) -> Counter:
    """Check every brace's plan structure, and the colorings of every brace
    whose space n**s is small enough for the oracle; return how many of
    those plans use a one-semiarc basis and how many a dropped-values
    filter."""
    system = build_constraints(d)
    s = system.semiarc_count
    kinds = Counter()
    for brace in braces.values():
        check_plan_structure(_compiled_for(brace, d), system)
        if brace.n**s > ORACLE_SPACE:
            continue
        cols = enumerate_colorings(brace, d)
        assert cols == sorted(brute_force_colorings(brace, d))
        assert counting_invariant(brace, d) == len(cols)
        one, dropped = basis_kinds(brace, d)
        kinds.update(one=one, dropped=dropped)
    return kinds


@given(
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 4),
    components=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_brute_force_on_random_codes(rng, crossings, components):
    check_against_oracle(parse_gauss_code(random_code(rng, crossings, components)))


def test_completion_rows_are_oracle_checked():
    """Plans that complete crossings from one semiarc, or that drop basis
    values no solution takes, are among the oracle-checked ones."""
    rng = random.Random(2021)
    kinds = Counter()
    for _ in range(40):
        code = random_code(rng, rng.randint(2, 4), rng.randint(1, 3))
        kinds += check_against_oracle(parse_gauss_code(code))
    assert kinds["one"] >= 20 and kinds["dropped"] >= 10


def test_random_virtual_plans_place_few_digit_rows():
    """Each digit row multiplies the frontier by n, so plan quality is the
    digit rows placed. On the benchmark's random_virtual pool, 28 codes on
    nab6 and cyc6, the compiler places 264 digit rows. Taking the lowest
    open semiarc as the next digit instead places 368 and makes counting
    the pool about 30 times slower."""
    workloads = perfbench_module("workloads")
    digits = sum(
        len(row) == 1
        for name in workloads.RV_BRACES
        for _, code in workloads.code_pool()
        for row in _compiled_for(braces[name], parse_gauss_code(code)).plan
    )
    assert digits <= 268


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
    pads=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_polynomials_match_powerset_oracle_on_random_codes(rng, crossings, components, pads):
    # zero-crossing components add free semiarcs
    d = parse_gauss_code(random_code(rng, crossings, components) + " / -" * pads)
    s = build_constraints(d).semiarc_count
    for name, brace in braces.items():
        if brace.n**s <= ORACLE_SPACE:
            assert both_polynomials(brace, d) == reference_polynomials(name, d)


def per_coloring_polynomials(brace, colorings) -> tuple[Polynomial2, Polynomial1]:
    """Both polynomials from every coloring's color set, each closed by
    the `substructures` closures."""
    bq = derived_biquandle(brace)

    @cache
    def profile(colors):
        image = biquandle_closure(bq, colors)
        return (
            len(group_closure(brace.circ, image)),
            len(group_closure(brace.star, image)),
            len(ideal_closure(brace, image)),
        )

    terms2: Counter = Counter()
    terms1: Counter = Counter()
    for row in colorings:
        a, b, c = profile(frozenset(row))
        terms2[a, b] += 1
        terms1[c] += 1
    return Polynomial2(dict(terms2)), Polynomial1(dict(terms1))


PADDED_LINKS = ("-", "- / -", "O1+ / U1+", "O1+ U2+ O3+ U1+ O2+ U3+", "O1+ U2- O4- U1+ O3+ U4- O2- U3+")


@pytest.mark.parametrize("name", BRACE_NAMES)
def test_polynomials_match_enumeration_on_padded_links(name):
    """Each link with the fewest zero-crossing components, at least one,
    that give it 10**4 colorings, the components in a seeded order."""
    brace = braces[name]
    rng = random.Random(name)
    for code in PADDED_LINKS:
        count = counting_invariant(brace, parse_gauss_code(code))
        k = next(k for k in range(1, 20) if count * brace.n**k >= 10**4)
        comps = code.split(" / ") + ["-"] * k
        rng.shuffle(comps)
        d = parse_gauss_code(" / ".join(comps))
        assert both_polynomials(brace, d) == per_coloring_polynomials(
            brace, enumerate_colorings(brace, d)
        )


def test_polynomials_match_per_coloring_oracle_on_the_census(census):
    """Both polynomials against ones from brute-force colorings, each
    color set closed, on random codes over the 55 census braces, 30 of
    which have a proper sub-skew-brace whose biquandle is not trivial."""
    rng = random.Random(55)
    cases = 0
    while cases < 200:
        brace = census[cases % len(census)]
        d = parse_gauss_code(random_code(rng, rng.randint(0, 3), rng.randint(1, 3)))
        if brace.n ** build_constraints(d).semiarc_count <= ORACLE_SPACE:
            want = per_coloring_polynomials(brace, brute_force_colorings(brace, d))
            assert both_polynomials(brace, d) == want
            cases += 1


def budget_error(call, *args) -> str:
    with pytest.raises(SearchTooLarge) as err:
        call(*args)
    return str(err.value)


def test_polynomials_raise_the_enumeration_budget_errors(monkeypatch):
    """Below one digit row's expansion both raise the partial-colorings
    error; below the colorings' cells both raise the colorings error."""
    rng = random.Random(12)
    messages = Counter()
    for _ in range(40):
        name = rng.choice(BRACE_NAMES)
        brace = braces[name]
        code = random_code(rng, rng.randint(0, 4), rng.randint(1, 3)) + " / -" * rng.randint(0, 3)
        d = parse_gauss_code(code)
        n, s = brace.n, build_constraints(d).semiarc_count
        cells = counting_invariant(brace, d) * s
        for budget in {b for b in (n * s - 1, max(n * s, cells - 1), cells // n) if b < cells}:
            monkeypatch.setattr(coloring, "_FRONTIER_CELLS", budget)
            want = budget_error(enumerate_colorings, brace, d)
            assert budget_error(both_polynomials, brace, d) == want
            messages[want.split()[0]] += 1
        monkeypatch.undo()
    assert messages["more"] >= 20 and sum(messages.values()) - messages["more"] >= 20


def test_sub_brace_cache_is_keyed_by_brace():
    # the sub-skew-braces are cached per brace: nab6 and cyc6 have ones of
    # the same sizes but different masks, {1, 2, 3} and {1, 6} on nab6
    # against {1, 3, 5} and {1, 4} on cyc6
    rng = random.Random(11)
    codes = [
        parse_gauss_code(random_code(rng, rng.randint(0, 5), rng.randint(1, 3)))
        for _ in range(30)
    ]
    pair = (braces["nab6"], braces["cyc6"])
    invariants._sub_braces.cache_clear()
    interleaved = [[both_polynomials(brace, d) for brace in pair] for d in codes]
    for d, got in zip(codes, interleaved):
        for brace, polys in zip(pair, got):
            invariants._sub_braces.cache_clear()
            assert both_polynomials(brace, d) == polys


def chunk_cases():
    rng = random.Random(7)
    cases = [(b, d) for b in BRACE_NAMES for d in bundled_links().values()]
    for _ in range(30):
        code = random_code(rng, rng.randint(3, 8), rng.randint(1, 3))
        cases.append((rng.choice(BRACE_NAMES), parse_gauss_code(code)))
    return cases


def frontier_rows(cp) -> list[list[int]]:
    """The partial colorings the whole plan leaves, block after block, each
    with every choice of colors on the free semiarcs in turn. Each block
    has a column for every semiarc but the free ones."""
    rows = []
    for m, cols in coloring._frontiers(cp, range(1, cp.n + 1)):
        assert sorted([*cols, *cp.free]) == list(range(cp.semiarc_count))
        for i in range(m):
            for colors in product(range(1, cp.n + 1), repeat=len(cp.free)):
                row = [0] * cp.semiarc_count
                for x, c in cols.items():
                    row[x] = c[i]
                for x, c in zip(cp.free, colors):
                    row[x] = c
                rows.append(row)
    return rows


def test_chunked_search_matches_unchunked(monkeypatch):
    chunked = 0
    for name, d in chunk_cases():
        brace = braces[name]
        cp = _compiled_for(brace, d)
        assert len(list(coloring._frontiers(cp, range(1, cp.n + 1)))) <= 1
        whole = frontier_rows(cp)
        count = counting_invariant(brace, d)
        cols = enumerate_colorings(brace, d)

        # two partial colorings per chunk at every digit row that would
        # otherwise pass the budget
        two_rows = 2 * brace.n * cp.semiarc_count
        monkeypatch.setattr(coloring, "_FRONTIER_CELLS", two_rows)
        assert counting_invariant(brace, d) == count
        chunked += len(list(coloring._frontiers(cp, range(1, cp.n + 1)))) > 1
        # the chunks come out in the unchunked order
        assert frontier_rows(cp) == whole
        monkeypatch.setattr(
            coloring, "_FRONTIER_CELLS", max(two_rows, len(cols) * cp.semiarc_count)
        )
        assert enumerate_colorings(brace, d) == cols
        monkeypatch.undo()
    assert chunked >= 30


def test_a_chunk_chain_past_the_recursion_limit(monkeypatch):
    """One partial coloring per chunk down a chain of more digit rows than
    the recursion limit: the stack of chunks needs no Python frame per
    level."""
    k = sys.getrecursionlimit()
    table = _lookup([[1, 1, 1], [1, 1, 1], [3, 3, 3]])
    plan = [(0,)]
    for i in range(1, k + 1):
        # a digit on semiarc i, then keep vals[i - 1] == T[vals[i]][vals[i]]
        plan += [(i,), (i, i, i - 1, table)]
    cp = CompiledPlan(plan=tuple(plan), n=3, semiarc_count=k + 1, free=())
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", 3 * (k + 1))
    assert frontier_rows(cp) == [[1] * (k + 1), [1] * k + [2], [3] * (k + 1)]


def padded_code(rng: random.Random, crossings: int, pads: int) -> str:
    """A random code with `pads` more `-` components shuffled among its
    own, so free semiarcs fall before, between and after the bound ones."""
    comps = random_code(rng, crossings, rng.randint(1, 2)).split(" / ") + ["-"] * pads
    rng.shuffle(comps)
    return " / ".join(comps)


def test_sorted_columns_sort_the_frontier(monkeypatch):
    """The colorings `color` prints are the whole plan's partial colorings
    sorted, also when the search runs two partial colorings per chunk."""
    rng = random.Random(16)
    chunked = 0
    for _ in range(100):
        brace = braces[rng.choice(BRACE_NAMES)]
        d = parse_gauss_code(padded_code(rng, rng.randint(1, 6), rng.randint(0, 2)))
        cp = _compiled_for(brace, d)
        whole = sorted(frontier_rows(cp))
        assert [list(row) for row in zip(*enumeration.sorted_columns(brace, d))] == whole
        budget = max(2 * brace.n * cp.semiarc_count, len(whole) * cp.semiarc_count)
        monkeypatch.setattr(coloring, "_FRONTIER_CELLS", budget)
        chunked += len(list(coloring._frontiers(cp, range(1, cp.n + 1)))) > 1
        assert [list(row) for row in zip(*enumeration.sorted_columns(brace, d))] == whole
        monkeypatch.undo()
    assert chunked >= 20


def test_sorted_columns_build_trailing_free_semiarcs_whole(monkeypatch):
    """Partial colorings that all differ before a trailing `-` get their
    columns built in one piece: at most one `_repeat` per semiarc, where a
    step per run of the 4,096 partial colorings would make thousands."""
    d = parse_gauss_code("O1+ U2+ / O2+ U1+ O3+ U4+ / U3+ O4+ O5+ U6+ / U5+ O6+ / -")
    calls = []

    def repeat(col, n):
        calls.append(n)
        return coloring._repeat(col, n)

    monkeypatch.setattr(enumeration, "_repeat", repeat)
    cols = enumeration.sorted_columns(braces["inv8"], d)
    assert (len(cols), len(cols[0])) == (13, 4096 * 8)
    assert len(calls) <= 13


def test_color_prints_the_brute_force_colorings(tmp_path, capsys):
    """`color` prints the oracle's colorings, in its order, on every bundled
    brace and on Z_12, whose colors take two digits."""
    z12 = trivial_cyclic_brace(12)
    path = tmp_path / "z12.txt"
    path.write_text(format_brace_file(z12))
    cases = [(brace, bundled_brace_path(name)) for name, brace in braces.items()]
    cases.append((z12, str(path)))
    rng = random.Random(18)
    checked = 0
    for _ in range(12):
        code = padded_code(rng, rng.randint(1, 3), rng.randint(1, 3))
        d = parse_gauss_code(code)
        s = build_constraints(d).semiarc_count
        header = "# semiarc " + " ".join(map(str, range(s)))
        for brace, path in cases:
            if brace.n**s > ORACLE_SPACE:
                continue
            rows = brute_force_colorings(brace, d)
            want = "".join(line + "\n" for line in [header, *(" ".join(map(str, r)) for r in rows)])
            assert main(["color", path, code]) == 0
            assert capsys.readouterr().out == want
            checked += 1
    assert checked >= 50


def test_budget_errors_read_the_same(monkeypatch):
    """The two budget texts, word for word; the count has no budget past
    its frontier."""
    dih8, nab6 = braces["dih8"], braces["nab6"]
    unlink3, trefoil = parse_gauss_code("- / - / -"), bundled_links()["trefoil"]
    # the trefoil's first digit row would make 8 partial colorings of 6
    # semiarcs, 48 cells, so every search stops there, the count too
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", 8 * 6 - 1)
    partial = "8 partial colorings of 6 semiarcs pass the frontier budget of 47 cells"
    assert budget_error(enumerate_colorings, dih8, trefoil) == partial
    assert budget_error(both_polynomials, dih8, trefoil) == partial
    assert budget_error(counting_invariant, dih8, trefoil) == partial
    # the unlink's plan has no row, so only its 512 colorings pass the budget
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", 8 * 3 - 1)
    few = "more than 7 colorings of 3 semiarcs pass the budget of 23 cells"
    assert budget_error(enumerate_colorings, dih8, unlink3) == few
    assert budget_error(both_polynomials, dih8, unlink3) == few
    assert counting_invariant(dih8, unlink3) == 512
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", 71)
    many = "more than 11 colorings of 6 semiarcs pass the budget of 71 cells"
    assert budget_error(enumerate_colorings, nab6, trefoil) == many
    assert budget_error(both_polynomials, nab6, trefoil) == many
    assert counting_invariant(nab6, trefoil) == 12


def test_budget_below_one_expansion_raises(monkeypatch):
    brace = braces["nab6"]
    trefoil = bundled_links()["trefoil"]
    s = build_constraints(trefoil).semiarc_count
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", brace.n * s - 1)
    with pytest.raises(SearchTooLarge):
        counting_invariant(brace, trefoil)
    with pytest.raises(SearchTooLarge):
        enumerate_colorings(brace, trefoil)
    # no plan row at all: nothing expands, so the error names the
    # colorings, though n * s alone passes the budget
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", brace.n * 3 - 1)
    with pytest.raises(SearchTooLarge, match="more than 5 colorings of 3 semiarcs"):
        enumerate_colorings(brace, parse_gauss_code("- / - / -"))


def test_enumeration_budget_counts_every_chunk(monkeypatch):
    brace = braces["dih8"]
    unlink3 = parse_gauss_code("- / - / -")
    monkeypatch.setattr(coloring, "_FRONTIER_CELLS", 3 * 8**3 - 1)
    assert counting_invariant(brace, unlink3) == 8**3
    with pytest.raises(SearchTooLarge):
        enumerate_colorings(brace, unlink3)
