from __future__ import annotations

import gc
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skewbrace import (
    Biquandle,
    OperationTable,
    Polynomial1,
    Polynomial2,
    biquandle_closure,
    both_polynomials,
    build_constraints,
    bundled_brace_names,
    counting_invariant,
    derived_biquandle,
    enumerate_colorings,
    group_closure,
    ideal_closure,
    ideal_polynomial,
    load_bundled_brace,
    move_invariance_trials,
    parse_gauss_code,
    sb_polynomial,
    validate_skew_brace,
)
from skewbrace.coloring import _count
from skewbrace.invariants import _sub_braces
from skewbrace.plan import _compile

from conftest import random_code, trivial_cyclic_brace

# (count, sb string, ideal string) per (brace, link)
FIXTURES = {
    ("klein_z4", "unknot"): (4, "2u^4v^4 + u^2v^2 + uv", "2u^4 + u^2 + u"),
    ("klein_z4", "unlink2"): (16, "12u^4v^4 + 3u^2v^2 + uv", "12u^4 + 3u^2 + u"),
    ("klein_z4", "vhopf"): (12, "8u^4v^4 + 3u^2v^2 + uv", "8u^4 + 3u^2 + u"),
    ("klein_z4", "trefoil"): (4, "2u^4v^4 + u^2v^2 + uv", "2u^4 + u^2 + u"),
    ("klein_z4", "fig8"): (4, "2u^4v^4 + u^2v^2 + uv", "2u^4 + u^2 + u"),
    ("z4_klein", "unknot"): (4, "2u^4v^4 + u^2v^2 + uv", "2u^4 + u^2 + u"),
    ("z4_klein", "unlink2"): (16, "12u^4v^4 + 3u^2v^2 + uv", "12u^4 + 3u^2 + u"),
    ("z4_klein", "vhopf"): (12, "8u^4v^4 + 3u^2v^2 + uv", "8u^4 + 3u^2 + u"),
    ("z4_klein", "trefoil"): (4, "2u^4v^4 + u^2v^2 + uv", "2u^4 + u^2 + u"),
    ("z4_klein", "fig8"): (4, "2u^4v^4 + u^2v^2 + uv", "2u^4 + u^2 + u"),
    ("nab6", "unknot"): (6, "2u^6v^6 + 2u^3v^3 + u^2v^2 + uv", "3u^6 + 2u^3 + u"),
    ("nab6", "unlink2"): (36, "24u^6v^6 + 8u^3v^3 + 3u^2v^2 + uv", "27u^6 + 8u^3 + u"),
    ("nab6", "vhopf"): (24, "12u^6v^6 + 8u^3v^3 + 3u^2v^2 + uv", "15u^6 + 8u^3 + u"),
    ("nab6", "trefoil"): (12, "8u^6v^6 + 2u^3v^3 + u^2v^2 + uv", "9u^6 + 2u^3 + u"),
    ("nab6", "fig8"): (6, "2u^6v^6 + 2u^3v^3 + u^2v^2 + uv", "3u^6 + 2u^3 + u"),
    ("cyc6", "unknot"): (6, "2u^6v^6 + 2u^3v^3 + u^2v^2 + uv", "3u^6 + 2u^3 + u"),
    ("cyc6", "unlink2"): (36, "24u^6v^6 + 8u^3v^3 + 3u^2v^2 + uv", "27u^6 + 8u^3 + u"),
    ("cyc6", "vhopf"): (24, "12u^6v^6 + 8u^3v^3 + 3u^2v^2 + uv", "15u^6 + 8u^3 + u"),
    ("cyc6", "trefoil"): (12, "8u^6v^6 + 2u^3v^3 + u^2v^2 + uv", "9u^6 + 2u^3 + u"),
    ("cyc6", "fig8"): (6, "2u^6v^6 + 2u^3v^3 + u^2v^2 + uv", "3u^6 + 2u^3 + u"),
    ("dih8", "unknot"): (8, "4u^4v^4 + 3u^2v^2 + uv", "6u^4 + u^2 + u"),
    ("dih8", "unlink2"): (64, "24u^8v^8 + 30u^4v^4 + 9u^2v^2 + uv", "24u^8 + 36u^4 + 3u^2 + u"),
    ("dih8", "vhopf"): (48, "12u^8v^8 + 26u^4v^4 + 9u^2v^2 + uv", "12u^8 + 32u^4 + 3u^2 + u"),
    ("dih8", "trefoil"): (8, "4u^4v^4 + 3u^2v^2 + uv", "6u^4 + u^2 + u"),
    ("dih8", "fig8"): (8, "4u^4v^4 + 3u^2v^2 + uv", "6u^4 + u^2 + u"),
    ("inv8", "unknot"): (8, "2u^8v^8 + 5u^2v^2 + uv", "4u^8 + 3u^4 + u"),
    ("inv8", "unlink2"): (64, "42u^8v^8 + 6u^4v^4 + 15u^2v^2 + uv", "48u^8 + 15u^4 + u"),
    ("inv8", "vhopf"): (26, "4u^8v^8 + 6u^4v^4 + 15u^2v^2 + uv", "10u^8 + 15u^4 + u"),
    ("inv8", "trefoil"): (8, "2u^8v^8 + 5u^2v^2 + uv", "4u^8 + 3u^4 + u"),
    ("inv8", "fig8"): (8, "2u^8v^8 + 5u^2v^2 + uv", "4u^8 + 3u^4 + u"),
}


def test_polynomials_match_fixture_table(braces, links):
    for (bn, ln), (count, sb_str, ideal_str) in FIXTURES.items():
        sb, ideal = both_polynomials(braces[bn], links[ln])
        assert str(sb) == sb_str, (bn, ln)
        assert str(ideal) == ideal_str, (bn, ln)
        assert sb.specialize() == ideal.specialize() == count


def test_single_polynomial_entry_points(braces, links):
    sb, ideal = both_polynomials(braces["nab6"], links["trefoil"])
    assert sb_polynomial(braces["nab6"], links["trefoil"]) == sb
    assert ideal_polynomial(braces["nab6"], links["trefoil"]) == ideal


@pytest.mark.parametrize("code", ["- / -", "O1+ / U1+"])
def test_polynomials_past_64_colors(code):
    # 70 colors: a coloring's color-set key passes 64 bits
    brace = trivial_cyclic_brace(70)
    bq = derived_biquandle(brace)
    d = parse_gauss_code(code)
    terms2: Counter = Counter()
    terms1: Counter = Counter()
    for colors, mult in Counter(frozenset(c) for c in enumerate_colorings(brace, d)).items():
        image = biquandle_closure(bq, colors)
        terms2[(len(group_closure(brace.circ, image)), len(group_closure(brace.star, image)))] += mult
        terms1[len(ideal_closure(brace, image))] += mult
    assert max(terms1) == 70
    assert both_polynomials(brace, d) == (Polynomial2(dict(terms2)), Polynomial1(dict(terms1)))


def test_z257_hopf_polynomials_take_two_counts():
    """Z_257 has two sub-skew-braces, {e} and itself, so the polynomials
    of the virtual Hopf link take two counts. Measuring each coloring's
    color set instead, about 33,000 distinct ones, took about 30 s."""
    brace = trivial_cyclic_brace(257)
    d = parse_gauss_code("O1+ / U1+")
    start = time.perf_counter()
    sb, ideal = both_polynomials(brace, d)
    assert time.perf_counter() - start < 5
    assert sb == Polynomial2({(257, 257): 257**2 - 1, (1, 1): 1})
    assert ideal == Polynomial1({257: 257**2 - 1, 1: 1})


def _restriction(bq, g) -> Biquandle:
    """The biquandle on the members of mask g, relabelled 1..|g| in their
    order."""
    xs = [x + 1 for x in range(bq.n) if g >> x & 1]
    label = {x: i for i, x in enumerate(xs, 1)}

    def table(t):
        return OperationTable.from_rows([[label[t.value(x, y)] for y in xs] for x in xs])

    return Biquandle(len(xs), table(bq.under), table(bq.over))


def test_sub_braces_are_the_closures_of_all_subsets(census):
    """The lattice lists close(S), the circ-group closure of the
    biquandle closure, for every nonempty subset S, ascending by size and
    the whole brace last with the derived biquandle itself; each entry
    carries its ideal closure's size and its biquandle relabelled, None
    when x <| y = x |> y = x on it."""
    for brace in census:
        bq = derived_biquandle(brace)
        elems = range(1, brace.n + 1)
        want = {
            group_closure(brace.circ, biquandle_closure(bq, t))
            for k in elems
            for t in combinations(elems, k)
        }
        lattice = _sub_braces(brace)
        got = [frozenset(x + 1 for x in range(brace.n) if g >> x & 1) for g, _, _ in lattice]
        assert len(got) == len(want) and set(got) == want
        assert [len(g) for g in got] == sorted(map(len, got))
        assert lattice[-1][2] is bq
        for (g, ideal, sub), members in zip(lattice, got):
            assert ideal == len(ideal_closure(brace, members))
            if sub is not bq:
                r = _restriction(bq, g)
                trivial = OperationTable.from_rows([[x] * r.n for x in range(1, r.n + 1)])
                assert sub == (None if r.under == r.over == trivial else r)


BRACES = {name: load_bundled_brace(name) for name in bundled_brace_names()}


@given(
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 6),
    components=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_a_trivial_sub_brace_keeps_each_component_one_color(rng, crossings, components):
    """`both_polynomials` counts a sub-skew-brace with a trivial biquandle
    as |G| ** components, with no search."""
    d = parse_gauss_code(random_code(rng, crossings, components))
    system = build_constraints(d)
    for brace in BRACES.values():
        bq = derived_biquandle(brace)
        for g, _, sub in _sub_braces(brace)[:-1]:
            if sub is None:
                assert _count(_compile(_restriction(bq, g), system)) == g.bit_count() ** components


def _relabelled(brace, p):
    """The same brace with element x renamed p[x - 1]."""

    def table(group):
        rows = [[0] * brace.n for _ in range(brace.n)]
        for x in range(1, brace.n + 1):
            for y in range(1, brace.n + 1):
                rows[p[x - 1] - 1][p[y - 1] - 1] = p[group.op(x, y) - 1]
        return OperationTable.from_rows(rows)

    return validate_skew_brace(table(brace.circ), table(brace.star))


@given(
    data=st.data(),
    name=st.sampled_from(sorted(BRACES)),
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 5),
    components=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_relabelling_the_brace_keeps_every_invariant(data, name, rng, crossings, components):
    """A metamorphic relation that needs no oracle: renaming the elements
    moves every sub-skew-brace's mask, but no count or polynomial."""
    brace = BRACES[name]
    p = data.draw(st.permutations(range(1, brace.n + 1)))
    other = _relabelled(brace, p)
    d = parse_gauss_code(random_code(rng, crossings, components))
    assert counting_invariant(other, d) == counting_invariant(brace, d)
    assert both_polynomials(other, d) == both_polynomials(brace, d)


def test_specialization_recovers_count(braces, links):
    for (bn, ln) in FIXTURES:
        count = counting_invariant(braces[bn], links[ln])
        sb, ideal = both_polynomials(braces[bn], links[ln])
        assert sb.specialize() == count
        assert ideal.specialize() == count


def test_exponents_divide_group_order(braces, links):
    # u and v measure subgroup closures, so every exponent is a divisor
    for (bn, ln) in FIXTURES:
        n = braces[bn].n
        sb, ideal = both_polynomials(braces[bn], links[ln])
        for a, b, _ in sb.sorted_terms():
            assert n % a == 0 and n % b == 0
        for a, _ in ideal.sorted_terms():
            assert n % a == 0


def test_identity_coloring_contributes_uv(braces, links):
    # the all-identity coloring always exists and has image {e}
    for (bn, ln) in FIXTURES:
        sb, ideal = both_polynomials(braces[bn], links[ln])
        assert sb.terms.get((1, 1), 0) >= 1
        assert ideal.terms.get(1, 0) >= 1


def test_canonical_string_forms():
    assert str(Polynomial2({})) == "0"
    assert str(Polynomial2({(0, 0): 5})) == "5"
    assert str(Polynomial2({(1, 1): 1, (4, 4): 8, (2, 2): 3})) == "8u^4v^4 + 3u^2v^2 + uv"
    assert str(Polynomial2({(1, 0): 1, (0, 1): 2})) == "u + 2v"
    assert str(Polynomial2({(3, 2): -1})) == "-u^3v^2"
    assert str(Polynomial1({})) == "0"
    assert str(Polynomial1({1: 1, 4: 3, 8: 4})) == "4u^8 + 3u^4 + u"
    assert str(Polynomial1({0: 2})) == "2"


def test_zero_coefficients_are_dropped():
    assert Polynomial2({(2, 2): 0, (1, 1): 1}) == Polynomial2({(1, 1): 1})
    assert Polynomial1({3: 0}) == Polynomial1({})
    assert hash(Polynomial2({(2, 2): 0})) == hash(Polynomial2({}))


def test_polynomial_equality_guards():
    assert Polynomial2({(1, 1): 1}) != Polynomial1({1: 1})
    assert Polynomial2({(1, 1): 1}) != "uv"


def test_json_terms_order():
    p = Polynomial2({(1, 1): 1, (4, 4): 2})
    assert p.json_terms() == [
        {"u": 4, "v": 4, "coeff": 2},
        {"u": 1, "v": 1, "coeff": 1},
    ]
    q = Polynomial1({1: 1, 6: 3})
    assert q.json_terms() == [{"u": 6, "coeff": 3}, {"u": 1, "coeff": 1}]


def test_move_trials_pass_and_are_seeded(braces, links):
    r1 = move_invariance_trials(braces["nab6"], links["trefoil"], trials=10, seed=99)
    r2 = move_invariance_trials(braces["nab6"], links["trefoil"], trials=10, seed=99)
    assert r1.all_invariant and r2.all_invariant
    assert r1 == r2
    assert r1.base_sb == sb_polynomial(braces["nab6"], links["trefoil"])
    assert r1.first_mismatch is None and r1.mismatch_code is None


def test_move_trials_reject_a_negative_count(braces, links):
    with pytest.raises(ValueError, match="^trials must be nonnegative, got -3$"):
        move_invariance_trials(braces["nab6"], links["trefoil"], trials=-3, seed=0)
    assert move_invariance_trials(braces["nab6"], links["trefoil"], trials=0, seed=0).trials == 0


def test_move_trials_report_the_first_mismatch(braces, monkeypatch):
    # a walk that adds a component changes both polynomials
    monkeypatch.setattr(
        "skewbrace.moves.random_diagram_walk", lambda d, rng, max_moves: parse_gauss_code("- / -")
    )
    result = move_invariance_trials(braces["nab6"], parse_gauss_code("-"), trials=3, seed=0)
    assert not result.all_invariant
    assert result.first_mismatch == 0
    assert result.mismatch_code == "- / -"


def _torus_knot(k):
    """The closed 2-braid T(2, k), k odd, as a signed Gauss code."""
    return " ".join(f"{'OU'[i % 2]}{i % k + 1}+" for i in range(2 * k))


def _held(call):
    """Bytes allocated during call() that are still allocated after it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("loop", ["count_random_codes", "move_trials_on_T(2,41)"])
def test_memory_held_is_flat_in_the_number_of_diagrams(braces, loop):
    """No cache is keyed by a diagram. With a compiled plan cached per
    diagram, 360 more diagrams held about 1.5 MB more as random codes of
    8-14 crossings and 3.9 MB more as walks of T(2,41); with none, 20-90 KB
    more, which is what the caches keyed by the brace and the interpreter's
    free lists keep."""
    brace = braces["klein_z4"]
    if loop == "count_random_codes":
        rng = random.Random(2021)
        codes = iter([parse_gauss_code(random_code(rng, rng.randint(8, 14), 1)) for _ in range(480)])

        def run(size, _):
            for _ in range(size):
                counting_invariant(brace, next(codes))
    else:
        d = parse_gauss_code(_torus_knot(41))

        def run(size, seed):
            move_invariance_trials(brace, d, trials=size, seed=seed)

    run(40, 1)  # fills the caches keyed by the brace
    small = _held(lambda: run(40, 2))
    large = _held(lambda: run(400, 3))
    assert large - small < 256 * 1024


def test_a_move_walk_leaves_the_tuple_free_lists_short(braces, links):
    """`tuple()` of a generator or a map allocates a spare tuple and shrinks
    it, so the tuple misses its size's free list when made but joins it
    when freed. A compile that built its per-crossing tuples that way grew
    the free lists with every diagram, up to 2,000 entries each. A full
    `gc.collect()` empties the free lists: at a walk's end it freed about
    2,700 blocks with those tuples and about 650 with tuples built from
    lists, which reuse the free list."""
    brace, d = braces["klein_z4"], links["fig8"]
    gc.collect()  # empties the free lists earlier tests left
    move_invariance_trials(brace, d, trials=2, seed=1)  # fills the caches keyed by the brace
    move_invariance_trials(brace, d, trials=100, seed=7)
    before = sys.getallocatedblocks()
    gc.collect()
    assert before - sys.getallocatedblocks() < 1000
