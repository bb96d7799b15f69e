from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import pytest

from skewbrace import build_constraints, enumerate_colorings, format_brace_file, parse_gauss_code
from skewbrace.bundled import bundled_brace_path, bundled_links_path
from skewbrace.cli import main

from conftest import trivial_cyclic_brace

NAB6 = bundled_brace_path("nab6")
Z4K = bundled_brace_path("z4_klein")
INV8 = bundled_brace_path("inv8")
LINKS = bundled_links_path()
ROOT = Path(__file__).resolve().parents[1]


def _installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **env_extra):
    """Run `python -m skewbrace.cli` in a child with `src` on the path."""
    env = dict(os.environ, **env_extra)
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run(
        [sys.executable, "-m", "skewbrace.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", NAB6)
    assert code == 0
    assert out == "valid skew brace, n=6, *-commutative: no, involutive: no\n"
    assert err == ""


def test_validate_involutive_flags(capsys):
    code, out, _ = run(capsys, "validate", Z4K)
    assert code == 0
    assert "*-commutative: yes, involutive: yes" in out


def test_validate_rejects_bad_table(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n2 2\n\n1 2\n2 1\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "no inverse for 2" in err
    assert out == ""


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "not found" in err


def test_biquandle_output(capsys):
    code, out, _ = run(capsys, "biquandle", Z4K)
    assert code == 0
    assert out == (
        "4\n1 1 1 1\n2 4 2 4\n3 3 3 3\n4 2 4 2\n"
        "\n1 1 1 1\n2 4 2 4\n3 3 3 3\n4 2 4 2\n"
    )


def test_ideals_output(capsys):
    code, out, _ = run(capsys, "ideals", bundled_brace_path("cyc6"))
    assert code == 0
    assert out == "1\n1,3,5\n1,2,3,4,5,6\n"


def test_color_inline_code(capsys):
    code, out, _ = run(capsys, "color", NAB6, "O1+ U2+ O3+ U1+ O2+ U3+")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# semiarc 0 1 2 3 4 5"
    assert len(lines) == 13
    assert lines[1] == "1 1 1 1 1 1"
    assert lines[4] == "4 4 5 6 6 5"


def test_color_prints_multi_digit_colors(capsys, tmp_path):
    brace = trivial_cyclic_brace(12)
    path = tmp_path / "z12.txt"
    path.write_text(format_brace_file(brace))
    code = "O1+ / U1+ / -"
    d = parse_gauss_code(code)
    rows = enumerate_colorings(brace, d)
    assert {10, 11, 12} <= {c for row in rows for c in row}
    header = "# semiarc " + " ".join(map(str, range(build_constraints(d).semiarc_count)))
    want = "".join(line + "\n" for line in [header, *(" ".join(map(str, row)) for row in rows)])
    assert run(capsys, "color", str(path), code) == (0, want, "")


def test_invariant_count(capsys):
    code, out, _ = run(capsys, "invariant", NAB6, LINKS, "--name", "trefoil")
    assert code == 0
    assert out == "12\n"


def test_invariant_sb_string(capsys):
    code, out, _ = run(
        capsys, "invariant", NAB6, LINKS, "--name", "trefoil", "--type", "sb"
    )
    assert code == 0
    assert out == "8u^6v^6 + 2u^3v^3 + u^2v^2 + uv\n"


def test_invariant_ideal_json(capsys):
    code, out, _ = run(
        capsys, "invariant", NAB6, LINKS, "--name", "trefoil", "--type", "ideal", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"u": 6, "coeff": 9},
            {"u": 3, "coeff": 2},
            {"u": 1, "coeff": 1},
        ]
    }


def test_invariant_count_json(capsys):
    code, out, _ = run(
        capsys, "invariant", INV8, LINKS, "--name", "vhopf", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"count": 26}


def test_invariant_rejects_bad_code(capsys):
    code, _, err = run(capsys, "invariant", NAB6, "O1+ U2+")
    assert code == 1
    assert "exactly once over and once under" in err


UNLINK21 = " / ".join(["-"] * 21)


def test_too_many_colorings_is_a_domain_error():
    out = run_process("color", INV8, UNLINK21)
    assert out.returncode == 1
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")


BUDGET_ERROR = (
    "error: more than 199728 colorings of 21 semiarcs pass the budget of 4194304 cells\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", INV8, UNLINK21, "--type", "sb"),
        ("invariant", INV8, UNLINK21, "--type", "ideal", "--json"),
        ("batch", INV8, "LINKFILE"),
    ],
    ids=["sb", "ideal-json", "batch"],
)
def test_polynomials_past_the_budget_are_a_domain_error(argv, tmp_path):
    linkfile = tmp_path / "unlink21.txt"
    linkfile.write_text(f"unlink21 := {UNLINK21}\n")
    out = run_process(*(str(linkfile) if a == "LINKFILE" else a for a in argv))
    assert out.returncode == 1
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert out.stderr == BUDGET_ERROR


CODE_ERROR = "crossing 1 must appear exactly once over and once under"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("validate", "TABLE"), 1, "error: circ table: no inverse for 2\n"),
        (("biquandle", "TABLE"), 1, "error: circ table: no inverse for 2\n"),
        (("ideals", "TABLE"), 1, "error: circ table: no inverse for 2\n"),
        (("color", NAB6, "O1+ U2+"), 1, f"error: {CODE_ERROR}\n"),
        (("invariant", NAB6, "O1+ U2+", "--type", "sb"), 1, f"error: {CODE_ERROR}\n"),
        (("check-moves", NAB6, "O1+ U2+"), 1, f"error: {CODE_ERROR}\n"),
        (("batch", NAB6, "LINKFILE"), 1, f"error: line 1 (x): {CODE_ERROR}\n"),
        (("color", INV8, UNLINK21), 1, BUDGET_ERROR),
        (("color", NAB6, "NOTUTF8"), 2, "error: NOTUTF8 is not UTF-8 text: invalid start byte at byte 0\n"),
    ],
    ids=[
        "validate", "biquandle", "ideals", "color", "invariant", "check-moves", "batch",
        "color-budget", "color-not-utf8",
    ],
)
def test_errors_in_a_fresh_process(argv, code, err, tmp_path):
    """Each command family's errors in a process that imported only what the
    command loads: one `error:` line, the documented exit code, no traceback."""
    files = {
        "TABLE": ("bad.txt", b"2\n1 2\n2 2\n\n1 2\n2 1\n"),
        "LINKFILE": ("links.txt", b"x := O1+ U2+\n"),
        "NOTUTF8": ("link.txt", b"\xff\xfe"),
    }
    paths = {}
    for key, (name, data) in files.items():
        paths[key] = tmp_path / name
        paths[key].write_bytes(data)
    out = run_process(*(str(paths.get(a, a)) for a in argv))
    assert out.returncode == code
    assert out.stdout == ""
    assert out.stderr == err.replace("NOTUTF8", str(paths["NOTUTF8"]))


def test_count_past_64_bits(capsys):
    code, out, err = run(capsys, "invariant", INV8, UNLINK21, "--type", "count")
    assert code == 0
    assert out == f"{8**21}\n" == "9223372036854775808\n"
    assert err == ""


def test_jobs_variable_is_ignored():
    argv = ("invariant", NAB6, LINKS, "--name", "trefoil")
    plain = run_process(*argv)
    assert plain.returncode == 0
    assert plain.stdout == "12\n"
    out = run_process(*argv, SKEWBRACE_JOBS="two")
    assert (out.returncode, out.stdout, out.stderr) == (0, plain.stdout, plain.stderr)


def test_link_file_requires_name_when_ambiguous(capsys):
    code, _, err = run(capsys, "invariant", NAB6, LINKS)
    assert code == 2
    assert "--name" in err


def test_unknown_link_name(capsys):
    code, _, err = run(capsys, "invariant", NAB6, LINKS, "--name", "ghost")
    assert code == 2
    assert "ghost" in err


def test_check_moves(capsys):
    code, out, _ = run(
        capsys, "check-moves", Z4K, LINKS, "--name", "vhopf",
        "--trials", "5", "--seed", "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "base sb: 8u^4v^4 + 3u^2v^2 + uv",
        "base ideal: 8u^4 + 3u^2 + u",
        "trials: 5, all invariant: yes",
    ]


def test_check_moves_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "check-moves", Z4K, LINKS, "--name", "vhopf", "--trials", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ")
    assert "--trials" in err.splitlines()[-1]


def test_check_moves_accepts_zero_trials(capsys):
    code, out, _ = run(capsys, "check-moves", Z4K, LINKS, "--name", "vhopf", "--trials", "0")
    assert code == 0
    assert out.splitlines()[-1] == "trials: 0, all invariant: yes"


@pytest.mark.parametrize(
    "argv",
    [("validate", "BAD"), ("invariant", NAB6, "BAD"), ("batch", NAB6, "BAD")],
    ids=["validate", "invariant", "batch"],
)
def test_non_utf8_input_is_an_io_error(argv, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    out = run_process(*(str(bad) if a == "BAD" else a for a in argv))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ") and str(bad) in out.stderr


def test_batch_output(capsys):
    code, out, _ = run(capsys, "batch", INV8, LINKS)
    assert code == 0
    assert out.splitlines() == [
        "unknot: count=8 sb=2u^8v^8 + 5u^2v^2 + uv ideal=4u^8 + 3u^4 + u",
        "unlink2: count=64 sb=42u^8v^8 + 6u^4v^4 + 15u^2v^2 + uv ideal=48u^8 + 15u^4 + u",
        "vhopf: count=26 sb=4u^8v^8 + 6u^4v^4 + 15u^2v^2 + uv ideal=10u^8 + 15u^4 + u",
        "trefoil: count=8 sb=2u^8v^8 + 5u^2v^2 + uv ideal=4u^8 + 3u^4 + u",
        "fig8: count=8 sb=2u^8v^8 + 5u^2v^2 + uv ideal=4u^8 + 3u^4 + u",
    ]


def test_batch_is_deterministic(capsys):
    _, first, _ = run(capsys, "batch", NAB6, LINKS)
    _, second, _ = run(capsys, "batch", NAB6, LINKS)
    assert first == second


@pytest.mark.skipif(
    not _installed("skewbrace"), reason="the skewbrace distribution is not installed"
)
def test_entry_point_installed():
    import shutil

    assert shutil.which("skewbrace") is not None


def test_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"skewbrace": "skewbrace.cli:main"}

    out = run_process("validate", NAB6)
    assert out.returncode == 0
    assert out.stdout == "valid skew brace, n=6, *-commutative: no, involutive: no\n"
