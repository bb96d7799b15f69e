from __future__ import annotations

from itertools import product
from pathlib import Path

import pytest

import skewbrace.properties
from skewbrace import (
    Biquandle,
    OperationTable,
    derive_biquandle,
    is_involutive,
    is_star_commutative,
    load_brace_file,
    r_map,
    validate_skew_brace,
    verify_biquandle_axioms,
)


def test_axioms_pass_on_all_bundled_braces(braces):
    for brace in braces.values():
        report = verify_biquandle_axioms(derive_biquandle(brace))
        assert report.passed
        assert tuple(c.name for c in report.checks) == (
            "fixed_point",
            "right_invertible",
            "pair_bijective",
            "exchange_1",
            "exchange_2",
            "exchange_3",
        )


def test_derived_values_nab6(braces):
    bq = derive_biquandle(braces["nab6"])
    assert bq.under.value(4, 3) == 6


def test_derived_values_z4_klein(braces):
    bq = derive_biquandle(braces["z4_klein"])
    assert bq.under.value(1, 3) == 1
    assert bq.over.value(3, 1) == 3


def test_r_map_anchor(braces):
    assert r_map(braces["nab6"], 4, 3) == (2, 5)


@pytest.mark.parametrize("x", [0, -1, 7])
def test_maps_reject_elements_outside_the_carrier(braces, x):
    brace = braces["nab6"]
    for args in ((x, 2), (2, x)):
        with pytest.raises(ValueError, match=f"^element {x} is outside 1..6$"):
            r_map(brace, *args)


def test_no_yb_map_is_exported():
    """The brace's Yang-Baxter map is `r_map`. S(x,y) = (y |> x, x <| y)
    fails the Yang-Baxter equation on nab6, cyc6 and inv8, so the package
    exports no map by that name."""
    import skewbrace

    assert not {"yb_map", "yb_map_inverse"} & set(skewbrace.__all__)
    for name in ("yb_map", "yb_map_inverse"):
        with pytest.raises(AttributeError):
            getattr(skewbrace, name)


def test_r_map_is_a_bijection_everywhere(braces):
    for brace in braces.values():
        n = brace.n
        images = {r_map(brace, x, y) for x in range(1, n + 1) for y in range(1, n + 1)}
        assert len(images) == n * n


def test_r_map_satisfies_the_yang_baxter_equation(braces):
    """(r x 1)(1 x r)(r x 1) = (1 x r)(r x 1)(1 x r) on X^3."""
    cases = [*braces.values(), load_brace_file(str(Path(__file__).with_name("q8_witness.txt")))]
    for brace in cases:
        xs = range(1, brace.n + 1)
        r = {(x, y): r_map(brace, x, y) for x, y in product(xs, repeat=2)}

        def r12(x, y, z):
            return (*r[x, y], z)

        def r23(x, y, z):
            return (x, *r[y, z])

        for v in product(xs, repeat=3):
            assert r12(*r23(*r12(*v))) == r23(*r12(*r23(*v)))


def test_involutive_iff_star_commutative(braces):
    for brace in braces.values():
        assert is_involutive(brace) == is_star_commutative(brace)


def test_diagonal_is_an_involution(braces):
    # x <| x = x |> x defines a permutation d with d(d(x)) = x
    for brace in braces.values():
        bq = derive_biquandle(brace)
        d = [bq.under.value(x, x) for x in range(1, brace.n + 1)]
        assert sorted(d) == list(range(1, brace.n + 1))
        for x in range(1, brace.n + 1):
            assert d[d[x - 1] - 1] == x


def test_single_element_brace():
    t = OperationTable.from_rows([[1]])
    brace = validate_skew_brace(t, t)
    bq = derive_biquandle(brace)
    assert bq.under.value(1, 1) == 1
    assert verify_biquandle_axioms(bq).passed


def _corrupt_diagonal(bq: Biquandle) -> Biquandle:
    rows = [list(row) for row in bq.under.rows]
    rows[0][0] = rows[0][0] % bq.n + 1
    return Biquandle(n=bq.n, under=OperationTable(bq.n, rows), over=bq.over)


def test_corrupted_table_fails_with_witness(braces):
    bad = _corrupt_diagonal(derive_biquandle(braces["nab6"]))
    report = verify_biquandle_axioms(bad)
    assert not report.passed
    assert report["fixed_point"].passed is False
    assert report["fixed_point"].witness == (1,)


def test_report_lookup_raises_on_unknown_name(braces):
    report = verify_biquandle_axioms(derive_biquandle(braces["cyc6"]))
    with pytest.raises(KeyError):
        report["no_such_axiom"]


def test_every_census_brace_derives_a_biquandle(census):
    """`derive_biquandle` checks no axiom, so this census of the bundled
    braces, the Q8 witness and every lambda-map brace over Q8 and D8 is
    what shows the derived tables are biquandles."""
    assert len(census) == 6 + 1 + 48
    for brace in census:
        assert verify_biquandle_axioms(derive_biquandle(brace)).passed


def test_deriving_runs_no_axiom_check(braces, monkeypatch):
    expected = {name: derive_biquandle(b) for name, b in braces.items()}

    def refuse(*args):
        raise AssertionError("derive_biquandle ran an axiom check")

    checks = [name for name in vars(skewbrace.properties) if name.startswith("_check_")]
    assert len(checks) == 4
    for name in checks:
        monkeypatch.setattr(skewbrace.properties, name, refuse)
    with pytest.raises(AssertionError, match="ran an axiom check"):
        verify_biquandle_axioms(expected["nab6"])
    for name, brace in braces.items():
        assert derive_biquandle(brace) == expected[name]


def test_axiom_violation_is_gone():
    assert "AxiomViolation" not in skewbrace.__all__
    with pytest.raises(AttributeError):
        skewbrace.AxiomViolation
