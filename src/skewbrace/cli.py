"""Command-line interface.

Exit codes: 0 success, 1 domain error (a failed move check, or a
`DomainError`: invalid brace, bad Gauss code, a coloring search past its
frontier budget) with the witness printed, 2 usage or IO error (an
`InputError` or `OSError`), or output into a pipe its reader closed.

`main` runs one command line in process and returns its code. Run as
`python -m skewbrace.cli` or as the installed `skewbrace` script, the
process goes through `console_main`: it flushes stdout, then stderr, and
ends with `os._exit`, which skips the interpreter's teardown (module
teardown, GC passes, freeing every object) and also every `atexit`
handler, coverage's among them. A failed flush keeps an error
already reported, its code and its one line; otherwise a closed pipe
exits 2 in silence, and another write error, a full disk, with one line.
Callers that need the process to go on call `main` instead.

Each command imports the modules it runs inside its `_cmd_*` function;
only `tables`, `axioms` and `bracefile` are imported at the top, since
every command reads and validates a brace. Input files are read by
`tables.read_text`, and a link argument by `bracefile.load_link`, which
imports `gauss` only when called. No command imports numpy, and
no module imports this one: run as `python -m skewbrace.cli`, it is
`__main__`, so importing `skewbrace.cli` would compile it a second time.

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
from .bracefile import _format_tables, load_brace_file, load_link
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


def _load_brace(path: str) -> SkewBrace:
    if not os.path.exists(path):
        raise InputError(f"brace file not found: {path}")
    return load_brace_file(path)


def _cmd_validate(args) -> int:
    brace = _load_brace(args.brace)
    commut = "yes" if is_star_commutative(brace) else "no"
    invol = "yes" if is_involutive(brace) else "no"
    print(f"valid skew brace, n={brace.n}, *-commutative: {commut}, involutive: {invol}")
    return 0


def _cmd_biquandle(args) -> int:
    from .biquandle import derive_biquandle

    brace = _load_brace(args.brace)
    bq = derive_biquandle(brace)
    sys.stdout.write(_format_tables(bq.under, bq.over))
    return 0


def _cmd_ideals(args) -> int:
    from .substructures import enumerate_ideals

    brace = _load_brace(args.brace)
    for ideal in enumerate_ideals(brace):
        print(",".join(str(x) for x in sorted(ideal)))
    return 0


def _cmd_color(args) -> int:
    from .enumeration import sorted_columns, write_colorings

    brace = _load_brace(args.brace)
    diagram = load_link(args.link, args.name)
    write_colorings(sorted_columns(brace, diagram), brace.n, sys.stdout.write)
    return 0


def _cmd_invariant(args) -> int:
    if args.type == "count":
        from .coloring import counting_invariant as invariant
    elif args.type == "sb":
        from .invariants import sb_polynomial as invariant
    else:
        from .invariants import ideal_polynomial as invariant
    brace = _load_brace(args.brace)
    diagram = load_link(args.link, args.name)
    value = invariant(brace, diagram)
    if args.json:
        import json

        out = {"count": value} if args.type == "count" else {"terms": value.json_terms()}
        print(json.dumps(out))
    else:
        print(value)
    return 0


def _cmd_check_moves(args) -> int:
    from .invariants import move_invariance_trials

    brace = _load_brace(args.brace)
    diagram = load_link(args.link, args.name)
    result = move_invariance_trials(
        brace, diagram, trials=args.trials, seed=args.seed
    )
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


def _cmd_batch(args) -> int:
    from .gauss import parse_link_file
    from .invariants import both_polynomials

    brace = _load_brace(args.brace)
    if not os.path.exists(args.linkfile):
        raise InputError(f"link file not found: {args.linkfile}")
    links = parse_link_file(read_text(args.linkfile))
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
    # looked up when a command line is parsed, so a patched one runs
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
    return SimpleNamespace(command=argv[0], func=_function(argv[0]), **args)


def main(argv: list[str] | None = None) -> int:
    """Run one command line in this process and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        from .usage import build_parser

        try:
            args = build_parser(_COMMANDS, _function).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        code = args.func(args)
        # flushed here, not only by `console_main`, so a closed pipe exits 2
        # also after check-moves' mismatch, and a full disk gets its line
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 2
    except (InputError, OSError) as exc:
        code, error = 2, exc
    except DomainError as exc:
        code, error = 1, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def console_main() -> NoReturn:
    """Run `main` on the process's arguments, flush stdout and stderr, and
    end the process with `os._exit`, skipping the interpreter's teardown.
    A flush that fails keeps an error already reported; otherwise a closed
    pipe exits 2 in silence, and any other write error with one line."""
    code, line = main(), ""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = code or 2
    except OSError as exc:
        if not code:
            code, line = 2, f"error: {exc}\n"
    try:
        sys.stderr.write(line)
        sys.stderr.flush()
    except OSError:
        code = code or 2
    os._exit(code)


if __name__ == "__main__":
    console_main()
