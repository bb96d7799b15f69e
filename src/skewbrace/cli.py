"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid brace, bad Gauss code,
failed move check, a coloring search past its frontier budget) with the
witness printed, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .biquandle import AxiomViolation, derive_biquandle, is_involutive
from .closures import enumerate_ideals
from .coloring import SearchTooLarge, _sorted_colorings, counting_invariant
from .gauss import (
    GaussCodeError,
    LinkDiagram,
    looks_like_gauss_code,
    parse_gauss_code,
    parse_link_file,
)
from .invariants import (
    both_polynomials,
    ideal_polynomial,
    move_invariance_trials,
    sb_polynomial,
)
from .moves import InvalidLocation
from .tables import SkewBrace, ValidationError, is_star_commutative, parse_brace_file

__all__ = ["main"]


_JOBS_HELP = "accepted for compatibility; has no effect"


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _UsageError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _trial_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _load_brace(path: str) -> SkewBrace:
    if not os.path.exists(path):
        raise _UsageError(f"brace file not found: {path}")
    return parse_brace_file(_read_text(path))


def _load_link(arg: str, name: str | None) -> tuple[str, LinkDiagram]:
    """A link argument is a file of named links or an inline Gauss code."""
    if os.path.exists(arg):
        links = parse_link_file(_read_text(arg))
        if not links:
            raise _UsageError(f"no links defined in {arg}")
        if name is None:
            if len(links) > 1:
                raise _UsageError(
                    f"{arg} defines {len(links)} links; pick one with --name"
                )
            name = next(iter(links))
        if name not in links:
            raise _UsageError(f"no link named {name!r} in {arg}")
        return name, links[name]
    if name is not None:
        raise _UsageError("--name only applies when the link argument is a file")
    if not looks_like_gauss_code(arg):
        raise _UsageError(f"link argument is neither an existing file nor a Gauss code: {arg}")
    return "inline", parse_gauss_code(arg)


def _cmd_validate(args) -> int:
    brace = _load_brace(args.brace)
    commut = "yes" if is_star_commutative(brace) else "no"
    invol = "yes" if is_involutive(brace) else "no"
    print(f"valid skew brace, n={brace.n}, *-commutative: {commut}, involutive: {invol}")
    return 0


def _cmd_biquandle(args) -> int:
    brace = _load_brace(args.brace)
    bq = derive_biquandle(brace)
    print(bq.n)
    for row in bq.under.entries.tolist():
        print(" ".join(str(v) for v in row))
    print()
    for row in bq.over.entries.tolist():
        print(" ".join(str(v) for v in row))
    return 0


def _cmd_ideals(args) -> int:
    brace = _load_brace(args.brace)
    for ideal in enumerate_ideals(brace):
        print(",".join(str(x) for x in sorted(ideal)))
    return 0


def _coloring_lines(cols: np.ndarray, n: int) -> str:
    """One line of 1-based colors per row of `cols`, spaces between them.

    Token t < n is color t + 1 and a space, token n + t the same color and
    a newline; every row becomes its tokens, the last one offset by n,
    gathered from one byte table and cut to each token's true length.
    """
    words = [f"{c} " for c in range(1, n + 1)] + [f"{c}\n" for c in range(1, n + 1)]
    width = max(map(len, words))
    table = np.array([list(w.ljust(width).encode()) for w in words], dtype=np.uint8)
    keep = np.arange(width) < np.array([len(w) for w in words])[:, None]
    tokens = cols.astype(np.min_scalar_type(2 * n - 1))
    tokens[:, -1] += n
    return table[tokens][keep[tokens]].tobytes().decode("ascii")


def _cmd_color(args) -> int:
    brace = _load_brace(args.brace)
    _, diagram = _load_link(args.link, args.name)
    cols = _sorted_colorings(brace, diagram)
    header = "# semiarc " + " ".join(str(i) for i in range(cols.shape[1])) + "\n"
    sys.stdout.write(header + _coloring_lines(cols, brace.n))
    return 0


def _cmd_invariant(args) -> int:
    brace = _load_brace(args.brace)
    _, diagram = _load_link(args.link, args.name)
    if args.type == "count":
        value = counting_invariant(brace, diagram)
        print(json.dumps({"count": value}) if args.json else value)
        return 0
    poly = (
        sb_polynomial(brace, diagram)
        if args.type == "sb"
        else ideal_polynomial(brace, diagram)
    )
    if args.json:
        print(json.dumps({"terms": poly.json_terms()}))
    else:
        print(poly)
    return 0


def _cmd_check_moves(args) -> int:
    brace = _load_brace(args.brace)
    _, diagram = _load_link(args.link, args.name)
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
    brace = _load_brace(args.brace)
    if not os.path.exists(args.linkfile):
        raise _UsageError(f"link file not found: {args.linkfile}")
    links = parse_link_file(_read_text(args.linkfile))
    for name, diagram in links.items():
        sb, ideal = both_polynomials(brace, diagram)
        print(f"{name}: count={sb.specialize()} sb={sb} ideal={ideal}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Skew brace validation and coloring invariants of knots and links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a brace structure-table file")
    p.add_argument("brace")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("biquandle", help="print the derived under/over tables")
    p.add_argument("brace")
    p.set_defaults(func=_cmd_biquandle)

    p = sub.add_parser("ideals", help="list all ideals of a brace")
    p.add_argument("brace")
    p.set_defaults(func=_cmd_ideals)

    def add_link_opts(p):
        p.add_argument("link", help="link file or inline Gauss code")
        p.add_argument("--name", help="link name when the link argument is a file")
        p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)

    p = sub.add_parser("color", help="enumerate all colorings of a link")
    p.add_argument("brace")
    add_link_opts(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("invariant", help="compute an invariant of a link")
    p.add_argument("brace")
    add_link_opts(p)
    p.add_argument("--type", choices=("count", "sb", "ideal"), default="count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("check-moves", help="test invariance under random moves")
    p.add_argument("brace")
    add_link_opts(p)
    p.add_argument("--trials", type=_trial_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_moves)

    p = sub.add_parser("batch", help="all invariants for every link in a file")
    p.add_argument("brace")
    p.add_argument("linkfile")
    p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ValidationError, AxiomViolation, GaussCodeError, InvalidLocation, SearchTooLarge
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
