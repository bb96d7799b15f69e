from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from skewbrace import (
    OperationTable,
    bundled_brace_names,
    bundled_links,
    load_brace_file,
    load_bundled_brace,
    validate_skew_brace,
)

BRACE_NAMES = bundled_brace_names()
LINK_NAMES = ("unknot", "unlink2", "vhopf", "trefoil", "fig8")
ROOT = Path(__file__).resolve().parents[1]


def perfbench_module(name: str):
    """The module `perfbench/<name>.py`, loaded from its file under the
    top-level name its siblings import it by; the tests only read it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def trivial_cyclic_brace(n):
    """The trivial skew brace on Z_n, both operations addition; element
    k + 1 stands for k."""
    add = OperationTable.from_rows([[(x + y) % n + 1 for y in range(n)] for x in range(n)])
    return validate_skew_brace(add, add)


def trivial_xor_brace(k):
    """The trivial skew brace on (Z_2)^k, both operations XOR; element
    x + 1 stands for the bit vector x. Its sub-skew-braces are the
    subspaces of F_2^k: 374 for k = 5, 2,825 for k = 6."""
    xor = OperationTable.from_rows([[(x ^ y) + 1 for y in range(1 << k)] for x in range(1 << k)])
    return validate_skew_brace(xor, xor)


def product_brace(b1, b2):
    """The direct product B1 x B2, a skew brace with componentwise
    operations; element (a, b) is (a - 1) * n2 + b."""
    n2 = b2.n
    pairs = [(a, b) for a in range(1, b1.n + 1) for b in range(1, n2 + 1)]

    def table(g1, g2):
        return OperationTable.from_rows(
            [[(g1.op(a, c) - 1) * n2 + g2.op(b, d) for c, d in pairs] for a, b in pairs]
        )

    return validate_skew_brace(table(b1.circ, b2.circ), table(b1.star, b2.star))


def random_code(rng: random.Random, crossings: int, components: int) -> str:
    """A random signed Gauss code: every crossing once over and once under
    with one random sign, shuffled and cut into `components` components.
    A component left without crossings is written `-`.

    Every such code is a virtual link diagram (Kauffman 1999)."""
    tokens = []
    for cid in range(1, crossings + 1):
        sign = rng.choice("+-")
        tokens += [f"O{cid}{sign}", f"U{cid}{sign}"]
    rng.shuffle(tokens)
    cuts = sorted(rng.randint(0, len(tokens)) for _ in range(components - 1))
    bounds = [0, *cuts, len(tokens)]
    return " / ".join(" ".join(tokens[a:b]) or "-" for a, b in zip(bounds, bounds[1:]))


@pytest.fixture(scope="session")
def braces():
    return {name: load_bundled_brace(name) for name in BRACE_NAMES}


@pytest.fixture(scope="session")
def links():
    return bundled_links()


@pytest.fixture(scope="session")
def census(braces):
    """The bundled braces, the Q8 witness and the 48 lambda-map braces
    over Q8 and D8 (`tests/lambda_braces.py`)."""
    from lambda_braces import brace_of, d8, lambda_maps, q8

    lam = [brace_of(t, m) for t in (q8(), d8()) for m in lambda_maps(t)]
    witness = load_brace_file(str(ROOT / "tests" / "q8_witness.txt"))
    return [*braces.values(), witness, *lam]
