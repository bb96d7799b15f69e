"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid brace, bad Gauss code,
failed move check, a coloring search past its frontier budget) with the
witness printed, 2 usage or IO error.

Each command imports the modules it runs inside its `_cmd_*` function;
only `tables` is imported at the top, since every command reads a brace.
Only the commands that color a link import numpy, through `coloring`,
and `color` also for its formatter.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .tables import SkewBrace, is_involutive, is_star_commutative, parse_brace_file

if TYPE_CHECKING:
    import numpy as np

    from .gauss import LinkDiagram

__all__ = ["main"]


_JOBS_HELP = "accepted for compatibility; has no effect"


class _UsageError(Exception):
    pass


# each domain error (exit 1) by the submodule that defines it
_DOMAIN_ERRORS = {
    "tables": "ValidationError",
    "biquandle": "AxiomViolation",
    "gauss": "GaussCodeError",
    "moves": "InvalidLocation",
    "coloring": "SearchTooLarge",
}


def _is_domain_error(exc: Exception) -> bool:
    # an error cannot come from a module that was never imported, so only
    # loaded modules are looked at, and this check imports none
    for module, name in _DOMAIN_ERRORS.items():
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(exc, getattr(loaded, name)):
            return True
    return False


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
    from .gauss import looks_like_gauss_code, parse_gauss_code, parse_link_file

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
    from .biquandle import derive_biquandle

    brace = _load_brace(args.brace)
    bq = derive_biquandle(brace)
    print(bq.n)
    for row in bq.under.rows:
        print(" ".join(str(v) for v in row))
    print()
    for row in bq.over.rows:
        print(" ".join(str(v) for v in row))
    return 0


def _cmd_ideals(args) -> int:
    from .closures import enumerate_ideals

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
    import numpy as np

    words = [f"{c} " for c in range(1, n + 1)] + [f"{c}\n" for c in range(1, n + 1)]
    width = max(map(len, words))
    table = np.array([list(w.ljust(width).encode()) for w in words], dtype=np.uint8)
    keep = np.arange(width) < np.array([len(w) for w in words])[:, None]
    tokens = cols.astype(np.min_scalar_type(2 * n - 1))
    tokens[:, -1] += n
    return table[tokens][keep[tokens]].tobytes().decode("ascii")


def _cmd_color(args) -> int:
    from .coloring import _sorted_colorings

    brace = _load_brace(args.brace)
    _, diagram = _load_link(args.link, args.name)
    cols = _sorted_colorings(brace, diagram)
    header = "# semiarc " + " ".join(str(i) for i in range(cols.shape[1])) + "\n"
    sys.stdout.write(header + _coloring_lines(cols, brace.n))
    return 0


def _cmd_invariant(args) -> int:
    if args.type == "count":
        from .coloring import counting_invariant as invariant
    elif args.type == "sb":
        from .invariants import sb_polynomial as invariant
    else:
        from .invariants import ideal_polynomial as invariant
    brace = _load_brace(args.brace)
    _, diagram = _load_link(args.link, args.name)
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
    from .gauss import parse_link_file
    from .invariants import both_polynomials

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
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if not _is_domain_error(exc):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
