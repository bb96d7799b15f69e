from __future__ import annotations

import pytest

from skewbrace import (
    bundled_brace_names,
    bundled_links,
    load_bundled_brace,
)

BRACE_NAMES = bundled_brace_names()
LINK_NAMES = ("unknot", "unlink2", "vhopf", "trefoil", "fig8")


@pytest.fixture(scope="session")
def braces():
    return {name: load_bundled_brace(name) for name in BRACE_NAMES}


@pytest.fixture(scope="session")
def links():
    return bundled_links()

