"""End-to-end acceptance checks.

Each test covers one promised behavior of the package and prints a single
pass line when it holds; run with -s (or read the -v report) to see one
line per criterion.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from pathlib import Path

from skewbrace import (
    biquandle_closure,
    brute_force_colorings,
    build_constraints,
    counting_invariant,
    enumerate_colorings,
    enumerate_ideals,
    group_closure,
    ideal_closure,
    is_ideal,
    is_involutive,
    load_brace_file,
    load_bundled_brace,
    move_invariance_trials,
    both_polynomials,
    parse_gauss_code,
    Polynomial1,
    Polynomial2,
    r_map,
    validate_skew_brace,
)
from skewbrace.biquandle import derived_biquandle

from conftest import product_brace

PAIRS = [
    (bn, ln)
    for bn in ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")
    for ln in ("unknot", "unlink2", "vhopf", "trefoil", "fig8")
]


def _ok(num: int, text: str) -> None:
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_all_braces_validate(braces):
    assert len(braces) == 6
    for brace in braces.values():
        # construction already ran full validation; identities coincide
        assert brace.circ.identity == brace.star.identity == brace.identity
    _ok(1, "all six bundled structure-table pairs validate with shared identity")


def test_criterion_2_involutivity(braces):
    assert r_map(braces["nab6"], 4, 3) == (2, 5)
    assert is_involutive(braces["nab6"]) is False
    assert is_involutive(braces["z4_klein"]) is True
    _ok(2, "r(4,3) = (2,5); involutivity flags match")


def test_criterion_3_vhopf_versus_unlink(braces, links):
    brace = braces["z4_klein"]
    sb_vhopf, _ = both_polynomials(brace, links["vhopf"])
    sb_unlink, _ = both_polynomials(brace, links["unlink2"])
    assert str(sb_vhopf) == "8u^4v^4 + 3u^2v^2 + uv"
    assert str(sb_unlink) == "12u^4v^4 + 3u^2v^2 + uv"
    got = set(enumerate_colorings(brace, links["vhopf"]))
    everything = {(a, b) for a in range(1, 5) for b in range(1, 5)}
    assert everything - got == {(2, 2), (2, 4), (4, 2), (4, 4)}
    _ok(3, "vhopf and unlink polynomials and the four excluded colorings match")


def test_criterion_4_classical_knots(braces, links):
    brace = braces["nab6"]
    assert counting_invariant(brace, links["trefoil"]) == 12
    assert counting_invariant(brace, links["fig8"]) == 6
    sb3, ideal3 = both_polynomials(brace, links["trefoil"])
    sb4, ideal4 = both_polynomials(brace, links["fig8"])
    assert str(ideal3) == "9u^6 + 2u^3 + u"
    assert str(ideal4) == "3u^6 + 2u^3 + u"
    assert str(sb3) == "8u^6v^6 + 2u^3v^3 + u^2v^2 + uv"
    assert str(sb4) == "2u^6v^6 + 2u^3v^3 + u^2v^2 + uv"
    _ok(4, "trefoil and figure-eight counts and polynomials match")


def test_criterion_5_ideals(braces):
    ideals = {tuple(sorted(i)) for i in enumerate_ideals(braces["cyc6"])}
    assert {(1,), (1, 3, 5), (1, 2, 3, 4, 5, 6)} <= ideals
    _ok(5, "cyc6 ideal list contains the identity, index-2, and full ideals")


def test_criterion_6_oracle_equivalence(braces, links):
    checked = 0
    for bn, ln in PAIRS:
        brace, d = braces[bn], links[ln]
        if brace.n ** build_constraints(d).semiarc_count <= 10**6:
            assert brute_force_colorings(brace, d) == enumerate_colorings(brace, d)
            checked += 1
    assert checked >= 20

    def subsets(n):
        for k in range(1, n + 1):
            yield from (frozenset(c) for c in combinations(range(1, n + 1), k))

    for brace in braces.values():
        bq = derived_biquandle(brace)
        preds = [
            (lambda t, g=brace.circ: all(g.op(a, b) in t for a in t for b in t),
             lambda s, g=brace.circ: group_closure(g, s)),
            (lambda t: all(
                bq.under.value(a, b) in t and bq.over.value(a, b) in t
                for a in t for b in t
            ), lambda s: biquandle_closure(bq, s)),
            (lambda t: is_ideal(brace, t), lambda s: ideal_closure(brace, s)),
        ]
        for predicate, close in preds:
            closed = [t for t in subsets(brace.n) if predicate(t)]
            for seed in subsets(brace.n):
                oracle = frozenset.intersection(*[t for t in closed if seed <= t])
                assert close(seed) == oracle
    _ok(6, f"solver equals brute filter on {checked} pairs; closures equal powerset oracles")


def test_criterion_7_specialization(braces, links):
    for bn, ln in PAIRS:
        count = counting_invariant(braces[bn], links[ln])
        sb, ideal = both_polynomials(braces[bn], links[ln])
        assert sb.specialize() == count
        assert ideal.specialize() == count
    _ok(7, "both polynomials specialize to the coloring count on all 30 pairs")


def test_criterion_8_move_invariance(braces, links):
    for bn, ln in PAIRS:
        result = move_invariance_trials(braces[bn], links[ln], trials=100, seed=20260817)
        assert result.all_invariant, (bn, ln, result.mismatch_code)
    _ok(8, "100 seeded move rewrites per pair leave both polynomials unchanged")


def test_criterion_9_involutive_triviality(braces, links):
    brace = braces["z4_klein"]
    unknot_sb, unknot_ideal = both_polynomials(brace, links["unknot"])
    trefoil_sb, trefoil_ideal = both_polynomials(brace, links["trefoil"])
    assert counting_invariant(brace, links["trefoil"]) == counting_invariant(
        brace, links["unknot"]
    )
    assert trefoil_sb == unknot_sb
    assert trefoil_ideal == unknot_ideal
    _ok(9, "with commutative star the trefoil is indistinguishable from the unknot")


def test_criterion_10_polynomials_are_proper_enhancements():
    # a brace from a lambda map over Q8 (tests/lambda_braces.py)
    brace = load_brace_file(str(Path(__file__).with_name("q8_witness.txt")))
    assert validate_skew_brace(brace.circ.table, brace.star.table) == brace
    expected = {
        "O1+ U2+ / O2+ U1+": ("36u^4v^4 + 3u^2v^2 + uv", "36u^4 + 3u^2 + u"),
        "O1+ / U1+": ("12u^8v^8 + 24u^4v^4 + 3u^2v^2 + uv", "12u^8 + 24u^4 + 3u^2 + u"),
    }
    for code, polynomials in expected.items():
        d = parse_gauss_code(code)
        assert counting_invariant(brace, d) == 40
        sb, ideal = both_polynomials(brace, d)
        assert (str(sb), str(ideal)) == polynomials
        assert brute_force_colorings(brace, d) == enumerate_colorings(brace, d)
    _ok(10, "the classical and the virtual Hopf link share 40 colorings but no polynomial")


def test_criterion_10_also_holds_for_knots():
    """Two 4-crossing virtual knots with 72 colorings each over inv8 x nab6
    (`tests/knot_witness48.txt`) but different polynomials. The oracle
    shares no plan with the product: a coloring over a direct product is
    a pair of colorings over its factors, and each pair's color set is
    closed by the `substructures` closures."""
    inv8, nab6 = load_bundled_brace("inv8"), load_bundled_brace("nab6")
    brace = load_brace_file(str(Path(__file__).with_name("knot_witness48.txt")))
    assert brace == product_brace(inv8, nab6)
    bq = derived_biquandle(brace)
    expected = {
        "U1- O3- O2+ U3- O4- O1- U4- U2+": (
            "24u^24v^24 + 12u^8v^8 + 22u^6v^6 + 2u^3v^3 + 11u^2v^2 + uv",
            "49u^24 + 6u^12 + 8u^8 + 3u^6 + 3u^4 + 2u^3 + u",
        ),
        "O2- U4- U1+ O3- O4- U3- U2- O1+": (
            "58u^6v^6 + 2u^3v^3 + 11u^2v^2 + uv",
            "49u^24 + 6u^12 + 2u^8 + 9u^6 + 3u^4 + 2u^3 + u",
        ),
    }
    for code, polynomials in expected.items():
        d = parse_gauss_code(code)
        assert counting_invariant(brace, d) == 72
        sb, ideal = both_polynomials(brace, d)
        assert (str(sb), str(ideal)) == polynomials
        terms2, terms1 = Counter(), Counter()
        for c1 in enumerate_colorings(inv8, d):
            for c2 in enumerate_colorings(nab6, d):
                x = biquandle_closure(bq, {(a - 1) * nab6.n + b for a, b in zip(c1, c2)})
                terms2[len(group_closure(brace.circ, x)), len(group_closure(brace.star, x))] += 1
                terms1[len(ideal_closure(brace, x))] += 1
        assert (Polynomial2(terms2), Polynomial1(terms1)) == (sb, ideal)
    _ok(10, "two virtual knots share 72 colorings over inv8 x nab6 but no polynomial")
