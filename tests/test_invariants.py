from __future__ import annotations

from collections import Counter

import pytest

from skewbrace import (
    Polynomial1,
    Polynomial2,
    biquandle_closure,
    both_polynomials,
    counting_invariant,
    derived_biquandle,
    enumerate_colorings,
    exponent_profile,
    group_closure,
    ideal_closure,
    ideal_polynomial,
    move_invariance_trials,
    parse_gauss_code,
    sb_polynomial,
    specialize,
)

from conftest import trivial_cyclic_brace

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
    # 70 colors: a coloring's color-set key spans 9 bytes
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


def test_specialization_recovers_count(braces, links):
    for (bn, ln) in FIXTURES:
        count = counting_invariant(braces[bn], links[ln])
        sb, ideal = both_polynomials(braces[bn], links[ln])
        assert specialize(sb) == count
        assert specialize(ideal) == count


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


def test_exponent_profile(braces, links):
    sb, _ = both_polynomials(braces["nab6"], links["vhopf"])
    profile = exponent_profile(sb)
    assert profile.uniform
    assert profile.counterexamples == ()
    skew = Polynomial2({(2, 1): 3, (2, 2): 1})
    assert exponent_profile(skew).counterexamples == ((2, 1),)


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
