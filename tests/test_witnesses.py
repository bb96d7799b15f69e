"""Witness order of the table and biquandle checks against scalar triple
loops: on corrupted tables, the error class and witness of
`validate_skew_brace`, and every check of `verify_biquandle_axioms`, equal
the first counterexample a plain scan in row-major order finds."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from skewbrace import (
    Biquandle,
    DistributiveLawFails,
    IdentityMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    OperationTable,
    ValidationError,
    load_bundled_brace,
    validate_skew_brace,
    verify_biquandle_axioms,
)
from skewbrace.coloring import derived_biquandle

BRACE_NAMES = ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")

braces = {name: load_bundled_brace(name) for name in BRACE_NAMES}


def rows_of(table):
    return [list(row) for row in table.rows]


def corrupt(rows, data, count):
    """`count` entries of a copy of `rows`, each moved to another value."""
    n = len(rows)
    rows = [row[:] for row in rows]
    for _ in range(count):
        x = data.draw(st.integers(0, n - 1))
        y = data.draw(st.integers(0, n - 1))
        delta = data.draw(st.integers(1, n - 1))
        rows[x][y] = (rows[x][y] - 1 + delta) % n + 1
    return rows


def reference_group(t):
    """(error class, witness) of the first failing group axiom, or the
    identity and the inverse of each element."""
    n = len(t)
    xs = range(1, n + 1)

    def op(a, b):
        return t[a - 1][b - 1]

    for x in xs:
        for y in xs:
            for z in xs:
                if op(op(x, y), z) != op(x, op(y, z)):
                    return (NotAssociative, (x, y, z)), None
    ident = next((e for e in xs if all(op(e, x) == x == op(x, e) for x in xs)), None)
    if ident is None:
        return (NoIdentity, None), None
    inverse = {}
    for x in xs:
        y = next((y for y in xs if op(x, y) == ident == op(y, x)), None)
        if y is None:
            return (NoInverse, x), None
        inverse[x] = y
    return None, (ident, inverse)


def reference_brace(circ, star):
    failure, circ_group = reference_group(circ)
    if failure:
        return failure
    failure, star_group = reference_group(star)
    if failure:
        return failure
    if circ_group[0] != star_group[0]:
        return IdentityMismatch, (circ_group[0], star_group[0])
    inv = star_group[1]
    xs = range(1, len(circ) + 1)

    def c(a, b):
        return circ[a - 1][b - 1]

    def s(a, b):
        return star[a - 1][b - 1]

    for x in xs:
        for y in xs:
            for z in xs:
                if c(x, s(y, z)) != s(s(c(x, y), inv[x]), c(x, z)):
                    return DistributiveLawFails, (x, y, z)
    return None, None


@given(
    name=st.sampled_from(BRACE_NAMES),
    which=st.sampled_from(("circ", "star")),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_validation_witness_is_the_first_in_row_major_order(name, which, data):
    brace = braces[name]
    tables = {"circ": rows_of(brace.circ.table), "star": rows_of(brace.star.table)}
    tables[which] = corrupt(tables[which], data, 1)
    want = reference_brace(tables["circ"], tables["star"])
    try:
        validate_skew_brace(
            OperationTable.from_rows(tables["circ"]), OperationTable.from_rows(tables["star"])
        )
    except ValidationError as exc:
        got = type(exc), getattr(exc, "witness", None)
    else:
        got = None, None
    assert got == want


@given(name=st.sampled_from(BRACE_NAMES), data=st.data())
@settings(max_examples=50, deadline=None)
def test_relabelled_star_table_witness(name, data):
    """A relabelled star group is still a group, so the first failure is an
    identity mismatch or the distributive law."""
    brace = braces[name]
    n = brace.n
    perm = data.draw(st.permutations(range(1, n + 1)))
    inv = {v: i + 1 for i, v in enumerate(perm)}
    star = [
        [perm[brace.star.op(inv[x], inv[y]) - 1] for y in range(1, n + 1)]
        for x in range(1, n + 1)
    ]
    circ = rows_of(brace.circ.table)
    want = reference_brace(circ, star)
    try:
        validate_skew_brace(OperationTable.from_rows(circ), OperationTable.from_rows(star))
    except ValidationError as exc:
        got = type(exc), exc.witness
    else:
        got = None, None
    assert got == want


def reference_axioms(u, o, ui, oi):
    """{check name: witness or None} by scalar scans in row-major order."""
    n = len(u)
    xs = range(1, n + 1)

    def at(t):
        return lambda a, b: t[a - 1][b - 1]

    U, O, UI, OI = at(u), at(o), at(ui), at(oi)

    def first(cells, bad):
        return next((cell for cell in cells if bad(*cell)), None)

    pairs = [(x, y) for x in xs for y in xs]
    triples = [(x, y, z) for x in xs for y in xs for z in xs]
    seen = set()

    def repeats(x, y):
        image = (O(y, x), U(x, y))
        if image in seen:
            return True
        seen.add(image)
        return False

    return {
        "fixed_point": first([(x,) for x in xs], lambda x: U(x, x) != O(x, x)),
        "right_invertible": first(
            pairs,
            lambda x, y: not (
                U(UI(x, y), y) == x == UI(U(x, y), y) and O(OI(x, y), y) == x == OI(O(x, y), y)
            ),
        ),
        "pair_bijective": first(pairs, repeats),
        "exchange_1": first(triples, lambda x, y, z: U(U(x, y), U(z, y)) != U(U(x, z), O(y, z))),
        "exchange_2": first(triples, lambda x, y, z: O(U(x, y), U(z, y)) != U(O(x, z), O(y, z))),
        "exchange_3": first(triples, lambda x, y, z: O(O(x, y), O(z, y)) != O(O(x, z), U(y, z))),
    }


@given(
    name=st.sampled_from(BRACE_NAMES),
    table=st.integers(min_value=0, max_value=3),
    count=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_axiom_witnesses_are_the_first_in_row_major_order(name, table, count, data):
    bq = derived_biquandle(braces[name])
    tables = [rows_of(t) for t in (bq.under, bq.over, bq.under_inv, bq.over_inv)]
    tables[table] = corrupt(tables[table], data, count)
    want = reference_axioms(*tables)
    u, o, ui, oi = (OperationTable.from_rows(t) for t in tables)
    report = verify_biquandle_axioms(Biquandle(n=bq.n, under=u, over=o, under_inv=ui, over_inv=oi))
    got = {check.name: check.witness for check in report.checks}
    assert got == want
    assert all(check.passed == (check.witness is None) for check in report.checks)
