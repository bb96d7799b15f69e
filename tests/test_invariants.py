from __future__ import annotations

import gc
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from skewbrace import (
    Biquandle,
    OperationTable,
    Polynomial1,
    Polynomial2,
    SearchTooLarge,
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
from skewbrace import coloring, plan
from skewbrace.closures import _joins
from skewbrace.coloring import _count
from skewbrace.invariants import _sub_braces
from skewbrace.plan import _compile, _compiled_for, _completion

from conftest import product_brace, random_code, trivial_cyclic_brace

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
    the whole brace last; each entry carries its ideal closure's size and
    its colors, None when x <| y = x |> y = x on it."""
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
        assert got[-1] == frozenset(elems)
        for (g, ideal, colors), members in zip(lattice, got):
            assert ideal == len(ideal_closure(brace, members))
            r = _restriction(bq, g)
            trivial = OperationTable.from_rows([[x] * r.n for x in range(1, r.n + 1)])
            assert colors == (None if r.under == r.over == trivial else tuple(sorted(members)))


BRACES = {name: load_bundled_brace(name) for name in bundled_brace_names()}


@pytest.mark.parametrize("names", [("nab6", "cyc6"), ("klein_z4", "inv8"), ("inv8", "nab6")])
def test_sub_braces_of_products_are_the_two_step_closures(names):
    """Past n = 8: on products of 32 to 48 elements the lattice, closed
    under circ and star, lists the same masks as the theorem's two-step
    closure, the circ-group closure of the biquandle closure."""
    brace = product_brace(*(BRACES[name] for name in names))
    bq = derived_biquandle(brace)

    def close(m):
        image = group_closure(brace.circ, biquandle_closure(bq, _colors(m)))
        return sum(1 << (x - 1) for x in image)

    want = _joins(close, brace.n)
    want.discard(0)
    assert [g for g, _, _ in _sub_braces(brace)] == sorted(
        want, key=lambda g: (g.bit_count(), g)
    )


def _colors(g) -> tuple[int, ...]:
    return tuple(x + 1 for x in range(g.bit_length()) if g >> x & 1)


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
    for brace in BRACES.values():
        cp = _compiled_for(brace, d)
        for g, _, colors in _sub_braces(brace)[:-1]:
            if colors is None:
                assert _count(cp, _colors(g)) == g.bit_count() ** components


# the first-occurrence labels of a crossing's slots (in_u, in_o, out_u,
# out_o): a semiarc has one head and one tail, so in_u != in_o and
# out_u != out_o, which leaves 7 patterns
LABELS = sorted(
    {
        tuple(sorted(set(t), key=t.index).index(x) for x in t)
        for t in product(range(4), repeat=4)
        if t[0] != t[1] and t[2] != t[3]
    }
)


def test_every_row_maps_a_sub_brace_into_itself(census):
    """The lemma in README "Invariants": every row the compiler can emit
    maps basis colors in a sub-skew-brace G to 0 or into G, on every
    census brace, proper sub-brace, sign, label pattern and set of bound
    labels. So a plan whose digit rows try only G's colors leaves exactly
    the colorings over G."""
    assert len(LABELS) == 7
    rows = 0
    for brace in census:
        bq = derived_biquandle(brace)
        for g, _, _ in _sub_braces(brace)[:-1]:
            inside = {0, *_colors(g)}
            for sign, labels in product((1, -1), LABELS):
                k = max(labels) + 1
                for known in product((False, True), repeat=k):
                    for *_, tab in _completion(bq, sign, labels, known) or ():
                        rows += 1
                        assert {tab[x][y] for x in inside for y in inside} <= inside
    assert rows > 30000


def test_restricted_counts_equal_counts_over_the_relabelled_biquandle(census):
    """On every census brace with a proper sub-skew-brace whose biquandle
    is not trivial, the whole brace's plan with G's colors counts what a
    plan compiled over G's own biquandle, relabelled 1..|G|, counts."""
    rng = random.Random(39)
    cases = 0
    for brace in census:
        bq = derived_biquandle(brace)
        subs = [(g, c) for g, _, c in _sub_braces(brace)[:-1] if c is not None]
        for _ in range(4 if subs else 0):
            d = parse_gauss_code(random_code(rng, rng.randint(0, 7), rng.randint(1, 3)))
            system = build_constraints(d)
            cp = _compiled_for(brace, d)
            for g, colors in subs:
                own = _compile(_restriction(bq, g), system)
                assert _count(cp, colors) == _count(own, range(1, own.n + 1))
                cases += 1
    assert cases >= 100


def test_both_polynomials_compile_one_plan(census, monkeypatch):
    """Every sub-skew-brace is counted on the one plan compiled for the
    whole brace."""
    calls = []
    monkeypatch.setattr(plan, "_compile", lambda *a: calls.append(1) or _compile(*a))
    d = parse_gauss_code("O1+ U2- O4- U1+ O3+ U4- O2- U3+ / O5+ U5+")
    for brace in [BRACES["dih8"], *census]:
        calls.clear()
        both_polynomials(brace, d)
        assert len(calls) == 1


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


def _recoded(code: str, rng: random.Random) -> str:
    """The same diagram written another way: each component's cyclic word
    rotated, the crossings renumbered and the components shuffled."""
    words = [c.split() for c in code.split(" / ")]
    ids = sorted({t[1:-1] for w in words for t in w if t != "-"})
    new = dict(zip(ids, map(str, rng.sample(range(1, 100), len(ids)))))
    comps = []
    for w in words:
        k = rng.randrange(len(w))
        comps.append(" ".join(t if t == "-" else t[0] + new[t[1:-1]] + t[-1] for t in w[k:] + w[:k]))
    rng.shuffle(comps)
    return " / ".join(comps)


@given(
    name=st.sampled_from(sorted(BRACES)),
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 8),
    components=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_recoding_the_diagram_keeps_every_invariant(name, rng, crossings, components):
    """A metamorphic relation that needs no oracle: the recoded diagram
    gets another plan, in another crossing order, but the same count and
    polynomials."""
    brace = BRACES[name]
    code = random_code(rng, crossings, components)
    d, other = parse_gauss_code(code), parse_gauss_code(_recoded(code, rng))
    assert counting_invariant(brace, other) == counting_invariant(brace, d)
    assert both_polynomials(brace, other) == both_polynomials(brace, d)


@given(
    name=st.sampled_from(sorted(BRACES)),
    rng=st.randoms(use_true_random=False),
    crossings=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    components=st.tuples(st.integers(1, 2), st.integers(1, 2)),
)
@settings(max_examples=25, deadline=None)
def test_a_split_union_multiplies_every_sub_brace_count(name, rng, crossings, components):
    """A metamorphic relation past brute force: a coloring of L1 ⊔ L2 is
    a pair of colorings, and it lies in G when both do, so the count over
    every sub-skew-brace G multiplies, and the union's polynomials are the
    Moebius inversion of the products. Two 12-crossing pieces make a
    24-crossing union."""
    brace = BRACES[name]
    first = random_code(rng, crossings[0], components[0])
    # the second piece's crossings renamed past the first's
    second = random_code(rng, crossings[1], components[1])
    second = re.sub(r"\d+", lambda m: str(int(m.group()) + 12), second)
    pieces = [parse_gauss_code(code) for code in (first, second)]
    plans = [_compiled_for(brace, piece) for piece in pieces]
    union = parse_gauss_code(f"{first} / {second}")
    count = counting_invariant(brace, union)
    assert count == counting_invariant(brace, pieces[0]) * counting_invariant(brace, pieces[1])
    exact: dict[int, int] = {}
    terms2, terms1 = Counter(), Counter()
    for g, ideal, _ in _sub_braces(brace):
        both = _count(plans[0], _colors(g)) * _count(plans[1], _colors(g))
        exact[g] = both - sum(e for h, e in exact.items() if h & ~g == 0)
        terms2[g.bit_count(), g.bit_count()] += exact[g]
        terms1[ideal] += exact[g]
    if count * build_constraints(union).semiarc_count > coloring._FRONTIER_CELLS:
        # past the enumeration's budget, which the polynomials keep
        with pytest.raises(SearchTooLarge):
            both_polynomials(brace, union)
    else:
        assert both_polynomials(brace, union) == (Polynomial2(terms2), Polynomial1(terms1))


_PRODUCTS: dict = {}


@given(
    data=st.data(),
    rng=st.randoms(use_true_random=False),
    crossings=st.integers(0, 6),
    components=st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_a_product_brace_counts_pairs(census, data, rng, crossings, components):
    """A metamorphic relation on carriers of 16 to 64 elements: a coloring
    over B1 x B2 is a pair of colorings over B1 and B2, so the count
    multiplies, and on the product's one plan the sub-skew-brace B1 x {e}
    counts what B1 counts."""
    i, j = (data.draw(st.integers(0, len(census) - 1)) for _ in range(2))
    b1, b2 = census[i], census[j]
    if (i, j) not in _PRODUCTS:
        _PRODUCTS[i, j] = product_brace(b1, b2)
    brace = _PRODUCTS[i, j]
    d = parse_gauss_code(random_code(rng, crossings, components))
    first, second = enumerate_colorings(b1, d), enumerate_colorings(b2, d)
    pairs = {tuple((a - 1) * b2.n + b for a, b in zip(c1, c2)) for c1 in first for c2 in second}
    got = enumerate_colorings(brace, d)
    assert len(got) == len(pairs) and set(got) == pairs
    assert counting_invariant(brace, d) == counting_invariant(b1, d) * counting_invariant(b2, d)
    e = b2.identity
    colors = tuple((a - 1) * b2.n + e for a in range(1, b1.n + 1))
    assert sum(1 << x - 1 for x in colors) in {g for g, _, _ in _sub_braces(brace)}
    assert _count(_compiled_for(brace, d), colors) == len(first)


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
