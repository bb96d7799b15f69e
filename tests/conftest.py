from __future__ import annotations

import pytest

from skewbrace import (
    OperationTable,
    bundled_brace_names,
    bundled_links,
    load_bundled_brace,
    validate_skew_brace,
)

BRACE_NAMES = bundled_brace_names()
LINK_NAMES = ("unknot", "unlink2", "vhopf", "trefoil", "fig8")


def trivial_cyclic_brace(n):
    """The trivial skew brace on Z_n, both operations addition; element
    k + 1 stands for k."""
    add = OperationTable.from_rows([[(x + y) % n + 1 for y in range(n)] for x in range(n)])
    return validate_skew_brace(add, add)


@pytest.fixture(scope="session")
def braces():
    return {name: load_bundled_brace(name) for name in BRACE_NAMES}


@pytest.fixture(scope="session")
def links():
    return bundled_links()

