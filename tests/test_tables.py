from __future__ import annotations

import sys

import numpy as np
import pytest

from skewbrace import (
    DistributiveLawFails,
    IdentityMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    OperationTable,
    format_brace_file,
    is_star_commutative,
    load_bundled_brace,
    parse_brace_file,
    validate_group,
    validate_skew_brace,
)
from skewbrace.bundled import bundled_brace_path
from skewbrace.tables import TableMalformed

KLEIN = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]
CYCLIC4 = [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]

EXPECTED_N = {
    "klein_z4": 4,
    "z4_klein": 4,
    "nab6": 6,
    "cyc6": 6,
    "dih8": 8,
    "inv8": 8,
}
STAR_COMMUTATIVE = {
    "klein_z4": True,
    "z4_klein": True,
    "nab6": False,
    "cyc6": False,
    "dih8": False,
    "inv8": True,
}


def test_bundled_braces_validate(braces):
    assert set(braces) == set(EXPECTED_N)
    for name, brace in braces.items():
        assert brace.n == EXPECTED_N[name]
        assert brace.identity == 1


def test_star_commutativity_flags(braces):
    got = {name: is_star_commutative(brace) for name, brace in braces.items()}
    assert got == STAR_COMMUTATIVE


def test_table_owns_its_entries():
    rows = np.array(CYCLIC4, dtype=np.int64)
    view = rows[:]
    table = OperationTable(4, rows)
    before = hash(table)
    view[0, 0] = 2
    assert table.rows == tuple(map(tuple, CYCLIC4))
    assert all(type(v) is int for row in table.rows for v in row)
    assert hash(table) == before == hash(OperationTable.from_rows(CYCLIC4))


def test_group_inverses(braces):
    for brace in braces.values():
        for g in (brace.circ, brace.star):
            for x in range(1, brace.n + 1):
                assert g.op(x, g.inv(x)) == g.identity
                assert g.op(g.inv(x), x) == g.identity


def test_not_associative_witness():
    table = OperationTable.from_rows([[2, 1], [1, 1]])
    with pytest.raises(NotAssociative) as exc:
        validate_group(table)
    assert exc.value.witness == (1, 1, 2)
    # scan order is fixed, so the witness is reproducible
    with pytest.raises(NotAssociative) as again:
        validate_group(table)
    assert again.value.witness == exc.value.witness


def test_no_identity():
    with pytest.raises(NoIdentity):
        validate_group(OperationTable.from_rows([[1, 1], [1, 1]]))


def test_no_inverse_witness():
    # max(x, y) is associative with identity 1 but 2 has no inverse
    with pytest.raises(NoInverse) as exc:
        validate_group(OperationTable.from_rows([[1, 2], [2, 2]]))
    assert exc.value.witness == 2


def test_identity_mismatch():
    circ = OperationTable.from_rows([[1, 2], [2, 1]])
    star = OperationTable.from_rows([[2, 1], [1, 2]])
    with pytest.raises(IdentityMismatch) as exc:
        validate_skew_brace(circ, star)
    assert exc.value.witness == (1, 2)


def test_distributive_law_failure_witness():
    # both tables are honest groups sharing identity 1, but the
    # compatibility law breaks
    star = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 2, 1], [4, 3, 1, 2]]
    with pytest.raises(DistributiveLawFails) as exc:
        validate_skew_brace(
            OperationTable.from_rows(CYCLIC4), OperationTable.from_rows(star)
        )
    assert exc.value.witness == (2, 2, 2)


def test_size_mismatch_rejected():
    with pytest.raises(TableMalformed):
        validate_skew_brace(
            OperationTable.from_rows([[1]]), OperationTable.from_rows(KLEIN)
        )


def test_table_entry_out_of_range():
    with pytest.raises(TableMalformed):
        OperationTable.from_rows([[1, 2], [2, 3]])
    with pytest.raises(TableMalformed):
        OperationTable.from_rows([[0, 1], [1, 0]])


def test_trivial_brace_single_element():
    t = OperationTable.from_rows([[1]])
    brace = validate_skew_brace(t, t)
    assert brace.n == 1 and brace.identity == 1


def test_same_group_twice_is_valid():
    # any group paired with itself satisfies the law
    t = OperationTable.from_rows(CYCLIC4)
    brace = validate_skew_brace(t, t)
    assert is_star_commutative(brace)


def test_swapped_klein_z4_tables_validate_as_the_other_brace(braces):
    kz = braces["klein_z4"]
    swapped = validate_skew_brace(kz.star.table, kz.circ.table)
    zk = braces["z4_klein"]
    assert swapped.circ.table.rows == zk.circ.table.rows
    assert swapped.star.table.rows == zk.star.table.rows


def test_format_parse_round_trip(braces):
    for brace in braces.values():
        text = format_brace_file(brace)
        again = parse_brace_file(text)
        assert again.circ.table.rows == brace.circ.table.rows
        assert again.star.table.rows == brace.star.table.rows
        assert format_brace_file(again) == text


def test_an_unknown_bundled_brace_is_a_key_error():
    with pytest.raises(KeyError) as exc:
        bundled_brace_path("q8")
    assert exc.value.args == (f"no bundled brace named 'q8'; have {tuple(EXPECTED_N)}",)


def test_bundled_files_parse_with_comments():
    for name in EXPECTED_N:
        with open(bundled_brace_path(name), encoding="utf-8") as fh:
            text = fh.read()
        brace = parse_brace_file(text)
        assert brace.n == EXPECTED_N[name]


MALFORMED = {
    "": "empty brace file",
    "x\n1\n": "expected carrier size on the first line, got 'x'",
    "0\n": "carrier size must be at least 1",
    "-1\n": "carrier size must be at least 1",
    # missing blank separator
    "2\n1 2\n2 1\n1 2\n2 1\n": "expected one blank line between the two tables",
    "2\n1 2\n2 1\n\n1 2\n": "star table: expected 2 rows, found 1",
    "2\n1 2\n2 1\n\n1 2\n2 1\n\nextra\n": "trailing content after the star table",
    "2\n1 a\n2 1\n\n1 2\n2 1\n": "circ table: non-integer entry in '1 a'",
    "2\n1 2 1\n2 1\n\n1 2\n2 1\n": "circ table: row has 3 entries, expected 2",
    "2\n1 2\n\n2 1\n\n1 2\n2 1\n": "circ table: blank line after 1 of 2 rows",
    "2\n1 2\n2 1\n\n\n1 2\n2 1\n": "star table: blank line after 0 of 2 rows",
    # past the interpreter's limit on digits in an int
    "1\n" + "1" * 5000 + "\n\n1\n": "circ table: entry of 5000 digits is too long",
    "1" * 5000 + "\n1\n\n1\n": "carrier size of 5000 digits is too long",
}


@pytest.mark.parametrize(
    # the overlong cases are named by their message, not by 5,000 digits
    "text", [t if len(t) < 100 else pytest.param(t, id=MALFORMED[t]) for t in MALFORMED]
)
def test_malformed_brace_files(text):
    with pytest.raises(TableMalformed) as exc:
        parse_brace_file(text)
    assert str(exc.value) == MALFORMED[text]


@pytest.mark.parametrize(
    "text", ["x\n1\n", "2\n1 a\n2 1\n\n1 2\n2 1\n"], ids=["carrier", "row"]
)
def test_malformed_brace_files_without_a_digit_limit(monkeypatch, text):
    """Python 3.10 before 3.10.7 has no `sys.get_int_max_str_digits`: a
    bad carrier line or row is still the same TableMalformed."""
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    with pytest.raises(TableMalformed) as exc:
        parse_brace_file(text)
    assert str(exc.value) == MALFORMED[text]


def test_blank_lines_around_a_brace_file_are_ignored():
    brace = parse_brace_file("\n\n  \n2\n1 2\n2 1\n\n1 2\n2 1\n\n \n\n")
    assert brace.circ.table.rows == brace.star.table.rows == ((1, 2), (2, 1))


def test_operation_table_access():
    t = OperationTable.from_rows(KLEIN)
    assert t.value(2, 3) == 4


@pytest.mark.parametrize("x", [0, -1, 5])
def test_elements_outside_the_carrier_are_rejected(x):
    group = validate_group(OperationTable.from_rows(KLEIN))
    assert group.n == 4
    for call in (lambda: group.table.value(x, 2), lambda: group.op(2, x), lambda: group.inv(x)):
        with pytest.raises(ValueError, match=f"^element {x} is outside 1..4$"):
            call()


@pytest.mark.parametrize(
    "n, entries, shape",
    [
        (2, [[1, 2, 1], [2, 1, 2]], "(2, 3)"),
        (2, [1, 2], "(2,)"),
        (2, np.ones((2, 2, 1), dtype=np.int64), "(2, 2, 1)"),
        (3, np.ones((2, 2), dtype=np.int64), "(2, 2)"),
        (0, [], "(0,)"),
        (-1, [[1]], "(1, 1)"),  # no shape is (n, n) for n < 1
    ],
)
def test_wrong_shape_names_the_shape(n, entries, shape):
    with pytest.raises(TableMalformed) as exc:
        OperationTable(n, entries)
    assert str(exc.value) == f"expected a {n}x{n} table, got shape {shape}"


def test_out_of_range_entry_names_the_first_in_row_major_order():
    with pytest.raises(TableMalformed) as exc:
        OperationTable(3, np.array([[1, 2, 3], [2, 4, 0], [3, 1, 5]]))
    assert str(exc.value) == "entry 4 at row 2, column 2 is outside 1..3"


@pytest.mark.parametrize(
    "entries, text",
    [
        ([[1, 2], [2, 1.7]], "1.7 at row 2, column 2"),
        ([[1, "2"], [2, 1]], "'2' at row 1, column 2"),
        ([[1, 2], [[2], 1]], "[2] at row 2, column 1"),
        ([[1, 2.0], [2, 9]], "2.0 at row 1, column 2"),  # first in row-major order
    ],
    ids=["float", "str", "list", "before-out-of-range"],
)
def test_entries_that_are_not_integers_are_named(entries, text):
    with pytest.raises(TableMalformed) as exc:
        OperationTable(2, entries)
    assert str(exc.value) == f"entry {text} is not an integer"
