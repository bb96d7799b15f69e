from __future__ import annotations

import contextlib
import errno
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import skewbrace
from skewbrace import (
    build_constraints,
    enumerate_colorings,
    format_brace_file,
    load_brace_file,
    parse_gauss_code,
)
from skewbrace.bundled import bundled_brace_path, bundled_links_path
from skewbrace import cli
from skewbrace.cli import main
from skewbrace.usage import build_parser

from conftest import trivial_cyclic_brace, trivial_xor_brace

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


def child_env(**env_extra) -> dict[str, str]:
    """The environment with `env_extra` set and `src` on the path."""
    env = dict(os.environ, **env_extra)
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return env


def run_process(*argv, **env_extra):
    """Run `python -m skewbrace.cli` in a child with `src` on the path."""
    return subprocess.run(
        [sys.executable, "-m", "skewbrace.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(**env_extra),
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


def test_color_prints_16_bit_colors(capsys, tmp_path):
    """257 colors do not fit a byte: the columns hold 16-bit colors."""
    brace = trivial_cyclic_brace(257)
    path = tmp_path / "z257.txt"
    path.write_text(format_brace_file(brace))
    code = "O1+ / U1+"
    rows = enumerate_colorings(brace, parse_gauss_code(code))
    assert len(rows) == 66049
    want = "".join(line + "\n" for line in ["# semiarc 0 1", *(" ".join(map(str, row)) for row in rows)])
    assert run(capsys, "color", str(path), code) == (0, want, "")


def test_color_output_spans_several_chunks(capsys):
    """`color` writes its lines a chunk at a time, header first, with the
    same bytes as formatting every coloring line by line."""
    from skewbrace import enumeration, load_bundled_brace

    code = "- / - / - / - / -"
    d = parse_gauss_code(code)
    rows = enumerate_colorings(load_bundled_brace("nab6"), d)
    assert len(rows) == 6**5 > enumeration._COLOR_CHUNK
    header = "# semiarc " + " ".join(map(str, range(build_constraints(d).semiarc_count)))
    want = "".join(line + "\n" for line in [header, *(" ".join(map(str, row)) for row in rows)])
    assert run(capsys, "color", NAB6, code) == (0, want, "")


def test_color_into_a_closed_pipe_exits_2_in_silence():
    """`color ... | head -1`: the reader closes the pipe after one line of
    46,656 colorings. The CLI stops with exit code 2 and writes nothing
    to stderr, neither an error line nor a failed flush at exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewbrace.cli", "color", NAB6, "- / - / - / - / - / -"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"# semiarc 0 1 2 3 4 5\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", NAB6),
        ("invariant", NAB6, "O1+ / U1+"),
        ("check-moves", NAB6, "O1+ / U1+", "--trials", "2"),
        ("batch", NAB6, LINKS),
        ("color", NAB6, "O1+ / U1+"),
        ("invariant", "-h"),
        ("--help",),
    ],
    ids=["validate", "invariant", "check-moves", "batch", "color", "invariant-help", "help"],
)
def test_output_into_a_closed_pipe_exits_2_in_silence(argv):
    """The pipe's read end is closed before the command starts, and stdout
    is block-buffered (no PYTHONUNBUFFERED), so a short output first meets
    the closed pipe when it is flushed: exit 2 and nothing on stderr, also
    for the help that argparse prints before `main` returns 0."""
    assert _into_closed_pipe(*argv) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv", [("validate", NAB6), ("invariant", "-h")], ids=["validate", "invariant-help"]
)
def test_output_onto_a_full_disk_is_one_error_line(argv):
    """Every write to /dev/full fails with ENOSPC. The block-buffered
    output first meets it when it is flushed: one error line and exit 2,
    whether `main` flushed it or the exit after `main` returned 0."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        out = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    error = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (out.returncode, out.stderr) == (2, error)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, full_stdout, code",
    [
        (("validate", "no-such-brace.txt"), False, 2),
        (("validate", NAB6), True, 2),
        (("invariant", NAB6, "O9+"), False, 1),
    ],
    ids=["missing-brace", "full-disk", "domain-error"],
)
def test_an_error_line_that_cannot_be_written_keeps_its_code(argv, full_stdout, code):
    """With stderr on /dev/full the `error:` line cannot be written, and
    the exit code is the one the error would have had: 2 for a missing
    file or a full stdout, 1 for a domain error."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        out = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", *argv],
            stdout=full if full_stdout else subprocess.DEVNULL,
            stderr=full,
            env=env,
        )
    assert out.returncode == code


class _Unwritable:
    def write(self, text):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    def flush(self):
        pass


def test_main_keeps_its_code_when_stderr_cannot_be_written(capsys, monkeypatch):
    """In process, an `error:` line whose write raises leaves `main`'s
    code as the error's own."""
    monkeypatch.setattr(sys, "stderr", _Unwritable())
    assert main(["validate", "no-such-brace.txt"]) == 2
    assert main(["invariant", NAB6, "O9+"]) == 1
    assert capsys.readouterr().out == ""


def test_an_error_after_output_into_a_closed_pipe_keeps_its_code(tmp_path):
    """`batch` prints the first link's line, which waits in stdout's
    buffer, then stops at the second link's budget error. The error keeps
    exit 1 and its one stderr line; the buffered line meets the closed
    pipe in `main`'s flush, not in the interpreter's at exit."""
    path = tmp_path / "links.txt"
    path.write_text("a := O1+ U1+\nb := " + " / ".join(["-"] * 21) + "\n")
    code, err = _into_closed_pipe("batch", INV8, str(path))
    assert (code, err.decode()) == (
        1,
        "error: more than 199728 colorings of 21 semiarcs pass the budget of 4194304 cells\n",
    )


def _into_closed_pipe(*argv) -> tuple[int, bytes]:
    """Exit code and stderr of the CLI with stdout block-buffered into a
    pipe whose read end is closed before it starts."""
    read, write = os.pipe()
    os.close(read)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    return out.returncode, out.stderr


def test_the_process_ends_without_atexit_handlers():
    """Run as `__main__`, the CLI ends its process with `os._exit` once
    both streams are flushed, so no handler registered with `atexit` runs."""
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
        "sys.argv[1:] = ['validate', sys.argv[1]]\n"
        "runpy.run_module('skewbrace.cli', run_name='__main__')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, NAB6], capture_output=True, text=True, env=child_env()
    )
    assert (out.returncode, out.stdout, out.stderr) == (
        0,
        "valid skew brace, n=6, *-commutative: no, involutive: no\n",
        "",
    )


def test_the_process_exit_loses_no_buffered_output(capsys, tmp_path):
    """46,656 colorings, block-buffered into a regular file, are the bytes
    `main` writes in process: the exit flushes all of them first."""
    argv = ["color", NAB6, "- / - / - / - / - / -"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert want.count(b"\n") == 1 + 6**6
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    path = tmp_path / "colorings.txt"
    with open(path, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", *argv],
            stdout=out,
            stderr=subprocess.PIPE,
            env=env,
        )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert path.read_bytes() == want


def test_main_returns_its_code_in_process(capsys):
    """`main` returns every exit code to its caller, the help's 0 and
    argparse's usage error included, and leaves the process running."""
    assert main(["validate", NAB6]) == 0
    assert main(["invariant", "-h"]) == 0
    assert main(["invariant", NAB6, "O9+"]) == 1
    assert main(["validate", NAB6, "extra"]) == 2
    assert main(["validate", "no-such-brace.txt"]) == 2
    capsys.readouterr()


def test_color_holds_no_object_per_coloring():
    """`color` holds its colorings as one column per semiarc: after a
    warm-up call, 262,144 colorings of six free semiarcs on dih8 peak
    below 16 traced bytes each. A `bytes` row per coloring took about 68."""
    argv = ["color", bundled_brace_path("dih8"), "- / - / - / - / - / -"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 16 * 8**6


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


def test_polynomials_past_the_sub_brace_cap_are_a_domain_error(tmp_path):
    """(Z_2)^6 has 2,825 sub-skew-braces, past the 1,024 the polynomials
    count over; its count has no such cap."""
    path = tmp_path / "z2_6.txt"
    path.write_text(format_brace_file(trivial_xor_brace(6)))
    out = run_process("invariant", str(path), "O1+ / U1+", "--type", "sb")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == (
        "error: the brace has more than 1024 sub-skew-braces,"
        " the most the polynomials count over\n"
    )
    out = run_process("invariant", str(path), "O1+ / U1+")
    assert (out.returncode, out.stdout, out.stderr) == (0, "4096\n", "")


WIDE_UNLINK = " / ".join(["-"] * 1200)


@pytest.mark.parametrize(
    "argv",
    [("invariant", "--type", "sb"), ("invariant", "--type", "ideal", "--json"), ("color",)],
    ids=["sb", "ideal-json", "color"],
)
def test_wide_links_fail_at_the_budget_at_once(argv):
    """1200 free semiarcs and no plan row: the budget error comes at
    once, from the count of the colorings, with no search."""
    out = run_process(argv[0], bundled_brace_path("klein_z4"), WIDE_UNLINK, *argv[1:])
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == (
        "error: more than 3495 colorings of 1200 semiarcs pass the budget of 4194304 cells\n"
    )


def test_wide_links_still_count():
    out = run_process("invariant", bundled_brace_path("klein_z4"), WIDE_UNLINK)
    assert (out.returncode, out.stdout, out.stderr) == (0, f"{4**1200}\n", "")


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
        (
            ("invariant", NAB6, f"O{'1' * 5000}+ U1+"),
            1,
            "error: bad Gauss code at offset 0: crossing id of 5000 digits is too long\n",
        ),
        (("validate", "LONGENTRY"), 1, "error: circ table: entry of 5000 digits is too long\n"),
    ],
    ids=[
        "validate", "biquandle", "ideals", "color", "invariant", "check-moves", "batch",
        "color-budget", "color-not-utf8", "long-crossing-id", "long-table-entry",
    ],
)
def test_errors_in_a_fresh_process(argv, code, err, tmp_path):
    """Each command family's errors in a process that imported only what the
    command loads: one `error:` line, the documented exit code, no traceback."""
    files = {
        "TABLE": ("bad.txt", b"2\n1 2\n2 2\n\n1 2\n2 1\n"),
        "LINKFILE": ("links.txt", b"x := O1+ U2+\n"),
        "NOTUTF8": ("link.txt", b"\xff\xfe"),
        "LONGENTRY": ("long.txt", b"1\n" + b"1" * 5000 + b"\n\n1\n"),
    }
    paths = {}
    for key, (name, data) in files.items():
        paths[key] = tmp_path / name
        paths[key].write_bytes(data)
    out = run_process(*(str(paths.get(a, a)) for a in argv))
    assert out.returncode == code
    assert out.stdout == ""
    assert out.stderr == err.replace("NOTUTF8", str(paths["NOTUTF8"]))


def test_a_plain_value_error_is_not_a_domain_error(monkeypatch):
    """Only DomainError subclasses become exit 1; any other ValueError
    raised inside a command is a bug and propagates out of main."""
    import skewbrace.cli as cli

    def broken(args, brace, link):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        main(["validate", NAB6])


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


def test_only_the_benchmark_pinned_count_takes_jobs():
    """`jobs` had no effect; only `counting_invariant` keeps it, since
    `perfbench/traced_job.py` passes it, and no command takes `--jobs`."""
    with_jobs = []
    for name in skewbrace.__all__:
        obj = getattr(skewbrace, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception class has no signature
            continue
        if "jobs" in params:
            with_jobs.append(name)
    assert with_jobs == ["counting_invariant"]
    assert [c for c, (_, _, options) in cli._COMMANDS.items() if "--jobs" in options] == []


@pytest.mark.parametrize(
    "argv, err",
    [
        (("validate", "{MISSING}"), "brace file not found: {MISSING}"),
        (("batch", NAB6, "{MISSING}"), "link file not found: {MISSING}"),
        (("color", NAB6, "{EMPTY}"), "no links defined in {EMPTY}"),
        (("invariant", NAB6, LINKS), "{LINKS} defines 5 links; pick one with --name"),
        (("check-moves", NAB6, LINKS, "--name", "x"), "no link named 'x' in {LINKS}"),
        (
            ("invariant", NAB6, "O1+ U1+", "--name", "x"),
            "--name only applies when the link argument is a file",
        ),
        (
            ("color", NAB6, "{MISSING}"),
            "link argument is neither an existing file nor a Gauss code: {MISSING}",
        ),
        (("validate", "{BADBRACE}"), "{BADBRACE} is not UTF-8 text: invalid start byte at byte 5"),
        (
            ("batch", NAB6, "{BADLINKS}"),
            "{BADLINKS} is not UTF-8 text: invalid start byte at byte 13",
        ),
    ],
    ids=[
        "brace-not-found", "link-file-not-found", "no-links", "pick-one", "no-such-name",
        "name-needs-a-file", "neither-file-nor-code", "brace-not-utf8", "links-not-utf8",
    ],
)
def test_each_input_error_is_one_exact_line(capsys, tmp_path, argv, err):
    """Each error in reading a command's input files or link argument:
    exit 2, no output, and one exact `error:` line. A byte offset counts
    from the start of the file, a leading BOM included."""
    files = {
        "EMPTY": b"# no links here\n",
        "BADBRACE": b"\xef\xbb\xbf2\n\xff\n",
        "BADLINKS": b"x := O1+ U1+\n\xff\n",
    }
    paths = {key: str(tmp_path / f"{key.lower()}.txt") for key in (*files, "MISSING")}
    for key, data in files.items():
        Path(paths[key]).write_bytes(data)
    argv = [a.format(**paths) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {err.format(LINKS=LINKS, **paths)}\n")


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


def test_check_moves_reports_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(
        "skewbrace.moves.random_diagram_walk", lambda d, rng, max_moves: parse_gauss_code("- / -")
    )
    code, out, _ = run(capsys, "check-moves", NAB6, "-", "--trials", "3")
    assert code == 1
    assert out.splitlines() == [
        "base sb: 2u^6v^6 + 2u^3v^3 + u^2v^2 + uv",
        "base ideal: 3u^6 + 2u^3 + u",
        "trials: 3, mismatch at trial 0: - / -",
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


TOP_HELP = """\
usage: skewbrace [-h]
                 {validate,biquandle,ideals,color,invariant,check-moves,batch}
                 ...

Skew brace validation and coloring invariants of knots and links

positional arguments:
  {validate,biquandle,ideals,color,invariant,check-moves,batch}
    validate            validate a brace structure-table file
    biquandle           print the derived under/over tables
    ideals              list all ideals of a brace
    color               enumerate all colorings of a link
    invariant           compute an invariant of a link
    check-moves         test invariance under random moves
    batch               all invariants for every link in a file

options:
  -h, --help            show this help message and exit
"""
INVARIANT_USAGE = """\
usage: skewbrace invariant [-h] [--name NAME] [--type {count,sb,ideal}]
                           [--json]
                           brace link
"""
INVARIANT_HELP = INVARIANT_USAGE + """
positional arguments:
  brace
  link                  link file or inline Gauss code

options:
  -h, --help            show this help message and exit
  --name NAME           link name when the link argument is a file
  --type {count,sb,ideal}
  --json
"""
TOP_USAGE = """\
usage: skewbrace [-h]
                 {validate,biquandle,ideals,color,invariant,check-moves,batch}
                 ...
"""
CHECK_MOVES_USAGE = """\
usage: skewbrace check-moves [-h] [--name NAME] [--trials TRIALS]
                             [--seed SEED]
                             brace link
"""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="texts as CPython 3.11's argparse writes them")
@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (("-h",), 0, TOP_HELP, ""),
        (("invariant", "-h"), 0, INVARIANT_HELP, ""),
        (
            ("invariant", NAB6, "-", "--type", "nope"),
            2,
            "",
            INVARIANT_USAGE + "skewbrace invariant: error: argument --type: invalid choice:"
            " 'nope' (choose from 'count', 'sb', 'ideal')\n",
        ),
        (
            ("invariant", NAB6),
            2,
            "",
            INVARIANT_USAGE
            + "skewbrace invariant: error: the following arguments are required: link\n",
        ),
        (
            ("invariant", NAB6, "-", "--bogus"),
            2,
            "",
            TOP_USAGE + "skewbrace: error: unrecognized arguments: --bogus\n",
        ),
        (
            ("invariant", NAB6, "-", "--jobs", "2"),
            2,
            "",
            TOP_USAGE + "skewbrace: error: unrecognized arguments: --jobs 2\n",
        ),
        (
            ("check-moves", NAB6, "-", "--seed", "x"),
            2,
            "",
            CHECK_MOVES_USAGE
            + "skewbrace check-moves: error: argument --seed: invalid int value: 'x'\n",
        ),
    ],
    ids=[
        "help", "invariant-help", "bad-type", "missing-link", "unknown-option", "no-jobs",
        "bad-seed",
    ],
)
def test_help_and_usage_texts(argv, code, out, err):
    """argparse writes every help, usage and error text, as it always has."""
    got = run_process(*argv, COLUMNS="80")
    assert (got.returncode, got.stdout, got.stderr) == (code, out, err)


def test_unusual_option_forms_still_parse(capsys):
    """An abbreviated option or an `=` value is parsed by argparse."""
    base = ("check-moves", Z4K, LINKS, "--name", "vhopf", "--seed", "3")
    plain = run(capsys, *base, "--trials", "5")
    assert plain[0] == 0
    assert run(capsys, *base, "--tri", "5") == plain
    assert run(capsys, "invariant", NAB6, "O1+ / U1+", "--type=sb") == run(
        capsys, "invariant", NAB6, "O1+ / U1+", "--type", "sb"
    )


COMMAND_NAMES = ["validate", "biquandle", "ideals", "color", "invariant", "check-moves", "batch", "nope"]
OPTION_FORMS = [
    "--name", "--jobs", "--type", "--json", "--trials", "--seed",
    "--na", "--jo", "--ty", "--js", "--tri", "--se", "--j",
    "--name=x", "--jobs=2", "--type=sb", "--json=1", "--trials=3", "--seed=2",
]
VALUES = ["3", "0", "-3", "x", " 4", "1_0", "", "count", "sb", "ideal", "nope"]
ODD = ["-", "- / -", "-3", "-h x", "--", "-h", "a", "b", "O1+ U1+"]


def _flat(draw):
    command, chunks = draw
    return [command, *(item for chunk in chunks for item in chunk)]


ARGVS = st.tuples(
    st.sampled_from(COMMAND_NAMES),
    st.lists(
        st.one_of(
            st.sampled_from(OPTION_FORMS + VALUES + ODD).map(lambda item: [item]),
            st.lists(st.sampled_from(VALUES + ODD), min_size=1, max_size=2),
            st.tuples(st.sampled_from(OPTION_FORMS), st.sampled_from(VALUES + ODD)).map(list),
        ),
        max_size=5,
    ),
).map(_flat)


@given(argv=ARGVS)
@example(argv=["check-moves", "a", "- / -", "--seed", "4", "--trials", "3", "--seed", "0"])
@example(argv=["invariant", "-", "b", "--type", "sb", "--json", "--type", "ideal"])
@settings(max_examples=400, deadline=None)
def test_plain_command_lines_parse_as_argparse_does(argv):
    """Every command line `_parse` accepts, argparse accepts with the same
    attributes."""
    fast = cli._parse(argv)
    if fast is None:
        return
    try:
        slow = build_parser(cli._COMMANDS).parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}, which _parse accepts")
    assert vars(fast) == vars(slow)


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


@pytest.mark.parametrize(
    "argv",
    [("validate", "BRACE"), ("invariant", NAB6, "LINKS", "--name", "trefoil")],
    ids=["brace", "links"],
)
def test_a_leading_byte_order_mark_is_dropped(capsys, argv, tmp_path):
    """A file saved with a UTF-8 BOM reads as the same file without one,
    though its first line is a comment (nab6.txt) or names a link."""
    texts = {"BRACE": Path(NAB6).read_text(), "LINKS": "trefoil := O1+ U2+ O3+ U1+ O2+ U3+\n"}
    runs = []
    for bom in ("", "\ufeff"):
        paths = {key: tmp_path / f"{key}{len(bom)}.txt" for key in texts}
        for key, path in paths.items():
            path.write_text(bom + texts[key], encoding="utf-8")
        runs.append(run(capsys, *(str(paths.get(a, a)) for a in argv)))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
    assert load_brace_file(str(paths["BRACE"])) == load_brace_file(NAB6)


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
        project = tomllib.load(fh)["project"]
    assert project["scripts"] == {"skewbrace": "skewbrace.cli:console_main"}
    assert project["dependencies"] == []

    out = run_process("validate", NAB6)
    assert out.returncode == 0
    assert out.stdout == "valid skew brace, n=6, *-commutative: no, involutive: no\n"
