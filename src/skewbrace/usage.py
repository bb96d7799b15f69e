"""The argparse parser of the CLI's commands.

`cli` reads every plain command line itself, from its table of commands,
and loads this module only for the rest: `-h`, usage errors and unusual
option forms. argparse then writes every help, usage and error text and
exits with 2 on a usage error. The table is passed in, so this module
never imports `skewbrace.cli`, and the namespaces it parses hold only the
command and its arguments.
"""

from __future__ import annotations

import argparse

__all__ = ["build_parser"]


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The parser of `commands`, a table of command -> (help, positionals
    as (dest, help), options as flag -> (default, kind, help)), where kind
    is `bool` for a flag, a tuple of choices or a converter."""
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Skew brace validation and coloring invariants of knots and links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options) in commands.items():
        p = sub.add_parser(command, help=text)
        for dest, help_text in positionals:
            p.add_argument(dest, help=help_text)
        for flag, (default, kind, help_text) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, default=default, help=help_text)
            else:
                p.add_argument(flag, type=kind, default=default, help=help_text)
    return parser
