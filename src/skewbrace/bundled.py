"""Access to the structure tables and link codes shipped with the package.

The bundled files are read as a user's files are, through
`tables.read_text`.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .bracefile import load_brace_file
from .gauss import LinkDiagram, parse_link_file
from .tables import SkewBrace, read_text

__all__ = [
    "bundled_brace_names",
    "load_bundled_brace",
    "bundled_links",
    "bundled_brace_path",
    "bundled_links_path",
]

BRACE_NAMES = ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")
# found next to this file: on Python 3.13 `importlib.resources` imports
# `inspect` and `typing`
_DATA = os.path.join(os.path.dirname(__file__), "data")


def bundled_brace_names() -> tuple[str, ...]:
    return BRACE_NAMES


def bundled_brace_path(name: str) -> str:
    if name not in BRACE_NAMES:
        raise KeyError(f"no bundled brace named {name!r}; have {BRACE_NAMES}")
    return os.path.join(_DATA, "braces", f"{name}.txt")


def bundled_links_path() -> str:
    return os.path.join(_DATA, "links.txt")


@lru_cache(maxsize=None)
def load_bundled_brace(name: str) -> SkewBrace:
    return load_brace_file(bundled_brace_path(name))


@lru_cache(maxsize=1)
def bundled_links() -> dict[str, LinkDiagram]:
    return parse_link_file(read_text(bundled_links_path()))
