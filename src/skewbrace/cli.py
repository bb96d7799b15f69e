"""Command-line interface.

Exit codes: 0 success, 1 domain error (a failed move check, or a
`DomainError`: invalid brace, bad Gauss code, a coloring search past its
frontier budget) with the witness printed, 2 usage or IO error (an
`InputError` or `OSError`), or output into a pipe its reader closed.

`main` runs one command line in process, returns its code and owns every
outcome rule: the parse, the reads of the brace and the link, the
command and the flush of stdout run in its one `try`, so a closed pipe
exits 2 in silence and an error prints one `error:` line, or keeps its
code when that line cannot be written. The installed `skewbrace` script
and `python -m skewbrace.cli` run `console_main`, which only flushes
stdout and stderr and calls `os._exit`: that skips the interpreter's
teardown (module teardown, GC passes, freeing every object) and every
`atexit` handler, coverage's among them.

Each `_cmd_*` function takes the parsed arguments and the brace and link
(for `batch`, the links of its file) that `main` read, and imports the
modules it runs; only `tables`, `axioms` and `bracefile` are imported at
the top. Input files are read by `tables.read_text`, and a link argument
by `bracefile.load_link`, which imports `gauss` only when called. No
command imports numpy, and no module imports this one: run as
`python -m skewbrace.cli`, it is `__main__`, so importing
`skewbrace.cli` would compile it a second time.

One table, `_COMMANDS`, describes every command, its positionals and its
options. `_parse` reads from it the plain command lines every documented
use writes, without argparse, whose import and parser cost a cold
process about 15 ms and 0.6 MB of peak RSS. Any other line (`-h`, a
usage error, an abbreviated option, `--opt=value`, `--`) goes to the
argparse parser `usage.build_parser` builds from the same table, so
argparse alone writes help, usage and error texts.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import NoReturn

from .axioms import is_involutive, is_star_commutative
from .bracefile import _format_tables, load_link, parse_brace_file
from .tables import DomainError, InputError, SkewBrace, read_text

__all__ = ["console_main", "main"]


def _trial_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _cmd_validate(args, brace: SkewBrace, link) -> int:
    commut = "yes" if is_star_commutative(brace) else "no"
    invol = "yes" if is_involutive(brace) else "no"
    print(f"valid skew brace, n={brace.n}, *-commutative: {commut}, involutive: {invol}")
    return 0


def _cmd_biquandle(args, brace: SkewBrace, link) -> int:
    from .biquandle import derive_biquandle

    bq = derive_biquandle(brace)
    sys.stdout.write(_format_tables(bq.under, bq.over))
    return 0


def _cmd_ideals(args, brace: SkewBrace, link) -> int:
    from .substructures import enumerate_ideals

    for ideal in enumerate_ideals(brace):
        print(",".join(str(x) for x in sorted(ideal)))
    return 0


def _cmd_color(args, brace: SkewBrace, link) -> int:
    from .enumeration import sorted_columns, write_colorings

    write_colorings(sorted_columns(brace, link), brace.n, sys.stdout.write)
    return 0


def _cmd_invariant(args, brace: SkewBrace, link) -> int:
    if args.type == "count":
        from .coloring import counting_invariant as invariant
    elif args.type == "sb":
        from .invariants import sb_polynomial as invariant
    else:
        from .invariants import ideal_polynomial as invariant
    value = invariant(brace, link)
    if args.json:
        import json

        out = {"count": value} if args.type == "count" else {"terms": value.json_terms()}
        print(json.dumps(out))
    else:
        print(value)
    return 0


def _cmd_check_moves(args, brace: SkewBrace, link) -> int:
    from .invariants import move_invariance_trials

    result = move_invariance_trials(brace, link, trials=args.trials, seed=args.seed)
    print(f"base sb: {result.base_sb}")
    print(f"base ideal: {result.base_ideal}")
    if result.all_invariant:
        print(f"trials: {result.trials}, all invariant: yes")
        return 0
    print(
        f"trials: {result.trials}, mismatch at trial {result.first_mismatch}: "
        f"{result.mismatch_code}"
    )
    return 1


def _cmd_batch(args, brace: SkewBrace, links) -> int:
    from .invariants import both_polynomials

    for name, diagram in links.items():
        sb, ideal = both_polynomials(brace, diagram)
        print(f"{name}: count={sb.specialize()} sb={sb} ideal={ideal}")
    return 0


# option -> (default, kind, help): kind is `bool` for a flag that takes no
# value, a tuple of choices, or the converter argparse also uses as `type`
_LINK_OPTIONS = {
    "--name": (None, str, "link name when the link argument is a file"),
}
_BRACE = ("brace", None)
_LINK = ("link", "link file or inline Gauss code")
# command -> (help, positionals as (dest, help), options); its function is
# `_cmd_<command>`, with `_` for `-`
_COMMANDS = {
    "validate": ("validate a brace structure-table file", [_BRACE], {}),
    "biquandle": ("print the derived under/over tables", [_BRACE], {}),
    "ideals": ("list all ideals of a brace", [_BRACE], {}),
    "color": ("enumerate all colorings of a link", [_BRACE, _LINK], _LINK_OPTIONS),
    "invariant": (
        "compute an invariant of a link",
        [_BRACE, _LINK],
        {
            **_LINK_OPTIONS,
            "--type": ("count", ("count", "sb", "ideal"), None),
            "--json": (False, bool, None),
        },
    ),
    "check-moves": (
        "test invariance under random moves",
        [_BRACE, _LINK],
        {**_LINK_OPTIONS, "--trials": (100, _trial_count, None), "--seed": (0, int, None)},
    ),
    "batch": (
        "all invariants for every link in a file",
        [_BRACE, ("linkfile", None)],
        {},
    ),
}


def _function(command: str):
    # looked up when the command runs, so a patched one runs
    return globals()["_cmd_" + command.replace("-", "_")]


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a plain command line, or None for
    any other: the command's exact name, then its positionals and its
    options by their exact names, each value option followed by a value
    that does not start with `-` and that its converter or choices accept.
    Like argparse, an item starting with `-` is a positional only if it is
    `-` or starts with `- `, and a repeated option keeps its last value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options = _COMMANDS[argv[0]]
    args = {flag[2:]: default for flag, (default, _, _) in options.items()}
    values = []
    items = iter(argv[1:])
    for item in items:
        if item in options:
            kind = options[item][1]
            value = True
            if kind is not bool:
                value = next(items, "-")  # a missing value fails as an option
                if value.startswith("-"):
                    return None
                if isinstance(kind, tuple):
                    if value not in kind:
                        return None
                else:
                    try:
                        value = kind(value)
                    except Exception:  # argparse converts it again and reports it
                        return None
            args[item[2:]] = value
        elif not item.startswith("-") or item == "-" or item.startswith("- "):
            values.append(item)
        else:
            return None
    if len(values) != len(positionals):
        return None
    args.update(zip([dest for dest, _ in positionals], values))
    return SimpleNamespace(command=argv[0], **args)


def _text(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise InputError(f"{what} file not found: {path}")
    return read_text(path)


def main(argv: list[str] | None = None) -> int:
    """Run one command line in this process and return its exit code:
    argparse's for help or a usage error, else the command's, unless
    reading, running or flushing raised an error `main` reports."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        try:
            if args is None:
                from .usage import build_parser

                args = build_parser(_COMMANDS).parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            brace = parse_brace_file(_text(args.brace, "brace"))
            link = None
            if args.command == "batch":
                from .gauss import parse_link_file

                link = parse_link_file(_text(args.linkfile, "link"))
            elif "link" in vars(args):
                link = load_link(args.link, args.name)
            code = _function(args.command)(args, brace, link)
        # flushed here, so a closed pipe exits 2 also after help or
        # check-moves' mismatch, and a full disk gets its line
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 2
    except (InputError, OSError) as exc:
        code, error = 2, exc
    except DomainError as exc:
        code, error = 1, exc
    try:
        sys.stderr.write(f"error: {error}\n")
    except OSError:  # a line that cannot be written leaves the code as it is
        pass
    return code


def console_main() -> NoReturn:
    """Run `main`, flush stdout and stderr and end the process with
    `os._exit(code)`: a flush that fails here, after an error `main`
    reported, changes nothing."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    console_main()
