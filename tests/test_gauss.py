from __future__ import annotations

import pytest

from skewbrace import (
    CrossingUsedWrong,
    GaussCodeError,
    GaussSyntaxError,
    LinkDiagram,
    SignMismatch,
    build_constraints,
    format_gauss_code,
    parse_gauss_code,
    parse_link_file,
)
from skewbrace.gauss import looks_like_gauss_code


def test_round_trip_bundled(links):
    for d in links.values():
        assert parse_gauss_code(format_gauss_code(d)) == d


def test_unknot_marker():
    d = parse_gauss_code("-")
    assert d.component_count == 1
    assert d.crossing_count == 0
    assert format_gauss_code(d) == "-"


def test_two_component_unlink():
    d = parse_gauss_code("- / -")
    assert d.component_count == 2
    assert build_constraints(d).semiarc_count == 2


def test_trefoil_structure(links):
    d = links["trefoil"]
    assert d.component_count == 1
    assert d.crossing_count == 3
    assert d.crossing_ids == (1, 2, 3)
    system = build_constraints(d)
    assert system.semiarc_count == 6
    assert len(system.constraints) == 3


def test_trefoil_first_constraint(links):
    # code O1+ U2+ O3+ U1+ O2+ U3+: crossing 1 is over at position 0 and
    # under at position 3, so its over passage runs 5 -> 0 and its under
    # passage 2 -> 3
    c = build_constraints(links["trefoil"]).constraints[0]
    assert c.crossing == 1
    assert c.sign == 1
    assert (c.over_in, c.over_out) == (5, 0)
    assert (c.under_in, c.under_out) == (2, 3)


def test_vhopf_structure(links):
    d = links["vhopf"]
    assert d.component_count == 2
    assert d.crossing_count == 1
    system = build_constraints(d)
    assert system.semiarc_count == 2
    c = system.constraints[0]
    # one-passage components wrap onto themselves
    assert (c.over_in, c.over_out) == (0, 0)
    assert (c.under_in, c.under_out) == (1, 1)


def test_fig8_structure(links):
    d = links["fig8"]
    assert d.crossing_count == 4
    assert build_constraints(d).semiarc_count == 8
    signs = {c.crossing: c.sign for c in build_constraints(d).constraints}
    assert signs == {1: 1, 2: -1, 3: 1, 4: -1}


def test_mixed_component_diagram():
    d = parse_gauss_code("O1+ U1+ / -")
    assert d.component_count == 2
    assert build_constraints(d).semiarc_count == 3


def test_syntax_error_position():
    with pytest.raises(GaussSyntaxError) as exc:
        parse_gauss_code("O1+ X2- U1+")
    assert exc.value.position == 4


ALONE = "`-` must be the only token in its component"


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("", 0, "empty code"),
        ("   ", 0, "empty code"),
        ("O1+ U1+ /", 9, "empty component"),
        ("/ -", 0, "empty component"),
        ("O1+ - U1+", 4, ALONE),
        ("- O1+ U1+", 0, ALONE),
        ("- -", 2, ALONE),
        ("O1+ X2- U1+", 4, "expected a passage like O1+ or `-`, got 'X2-'"),
        ("O0+ U0+", 0, "crossing ids start at 1"),
    ],
)
def test_syntax_errors_name_their_offset(text, position, message):
    with pytest.raises(GaussSyntaxError) as exc:
        parse_gauss_code(text)
    assert str(exc.value) == f"bad Gauss code at offset {position}: {message}"
    assert exc.value.position == position


def test_overlong_crossing_id_is_a_syntax_error():
    """An id past the interpreter's limit on digits in an int (4,300 by
    default) is a syntax error at its token, not a plain ValueError."""
    long_id = "1" * 5000
    with pytest.raises(GaussSyntaxError) as exc:
        parse_gauss_code(f"O1+ U1+ / O{long_id}+ U{long_id}+")
    assert exc.value.position == 10
    assert str(exc.value) == "bad Gauss code at offset 10: crossing id of 5000 digits is too long"


def test_bad_marker_placement():
    with pytest.raises(GaussSyntaxError):
        parse_gauss_code("O1+ - U1+")
    with pytest.raises(GaussSyntaxError):
        parse_gauss_code("- O1+ U1+")


def test_empty_code_rejected():
    with pytest.raises(GaussSyntaxError):
        parse_gauss_code("")
    with pytest.raises(GaussSyntaxError):
        parse_gauss_code("O1+ U1+ /")


def test_a_diagram_with_no_component_has_no_constraints():
    with pytest.raises(GaussCodeError, match="^empty diagram: no components$"):
        build_constraints(LinkDiagram(components=()))


def test_crossing_id_zero_rejected():
    with pytest.raises(GaussSyntaxError):
        parse_gauss_code("O0+ U0+")


def test_crossing_used_wrong():
    with pytest.raises(CrossingUsedWrong) as exc:
        parse_gauss_code("O1+ U2+")
    assert exc.value.crossing_id == 1
    with pytest.raises(CrossingUsedWrong):
        parse_gauss_code("O1+ O1+")
    with pytest.raises(CrossingUsedWrong):
        parse_gauss_code("O1+ U1+ O1+ U1+")


def test_sign_mismatch():
    with pytest.raises(SignMismatch) as exc:
        parse_gauss_code("O1+ U1-")
    assert exc.value.crossing_id == 1


def test_looks_like_gauss_code():
    assert looks_like_gauss_code("O1+ U1+")
    assert looks_like_gauss_code("- / -")
    assert not looks_like_gauss_code("links.txt")
    assert not looks_like_gauss_code("")


def test_parse_link_file():
    text = "# comment\nunknot := -\nhopfish := O1+ U1+\n\n"
    links = parse_link_file(text)
    assert list(links) == ["unknot", "hopfish"]
    assert links["unknot"].crossing_count == 0


# every error of a link file, one line each
LINK_FILE_ERRORS = {
    "no separator here\n": "line 1: expected `name := code`",
    " := O1+ U1+\n": "line 1: empty link name",
    "a := O1+ U1+\n# c\n\na := O1- U1-\n": "line 4: duplicate link name 'a'",
    "a := O1+ U1+\nb := O1+\n": (
        "line 2 (b): crossing 1 must appear exactly once over and once under"
    ),
}


def test_parse_link_file_errors():
    for text, message in LINK_FILE_ERRORS.items():
        with pytest.raises(GaussCodeError) as exc:
            parse_link_file(text)
        assert str(exc.value) == message


def test_bundled_link_file(links):
    assert list(links) == ["unknot", "unlink2", "vhopf", "trefoil", "fig8"]
