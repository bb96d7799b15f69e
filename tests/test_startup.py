"""Which modules `import skewbrace` and each CLI command load.

Every check runs in a fresh interpreter: in process, `sys.modules` already
holds everything the other tests imported.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "skewbrace" / "data"
NAB6 = str(DATA / "braces" / "nab6.txt")
LINKS = str(DATA / "links.txt")


def python(code: str, *argv: str):
    """Run `python -c code argv...` with `src` on the path; the last stdout
    line, read as a Python literal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    loaded = python(
        "import sys, skewbrace\n"
        "print((sorted(m for m in sys.modules if m.startswith('skewbrace')), 'numpy' in sys.modules))"
    )
    assert loaded == (["skewbrace"], False)


COLORING = {"tables", "biquandle", "gauss", "coloring"}
POLYNOMIALS = COLORING | {"closures", "invariants"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["validate", NAB6], {"tables"}),
        (["biquandle", NAB6], {"tables", "biquandle"}),
        (["ideals", NAB6], {"tables", "closures"}),
        (["color", NAB6, "O1+ / U1+"], COLORING),
        (["invariant", NAB6, "O1+ / U1+"], COLORING),
        (["invariant", NAB6, "O1+ / U1+", "--json"], COLORING),
        (["invariant", NAB6, "O1+ / U1+", "--type", "sb"], POLYNOMIALS),
        (["invariant", NAB6, "O1+ / U1+", "--type", "ideal", "--json"], POLYNOMIALS),
        (["check-moves", NAB6, "O1+ / U1+", "--trials", "2"], POLYNOMIALS | {"moves"}),
        (["batch", NAB6, LINKS], POLYNOMIALS),
    ],
    ids=[
        "validate", "biquandle", "ideals", "color", "count", "count-json",
        "sb", "ideal-json", "check-moves", "batch",
    ],
)
def test_command_loads_only_its_modules(argv, modules):
    code, loaded, has_json = python(
        "import sys\n"
        "from skewbrace.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print((code, sorted(m for m in sys.modules if m.startswith('skewbrace.')),"
        " 'json' in sys.modules))",
        *argv,
    )
    assert code == 0
    assert loaded == sorted(f"skewbrace.{m}" for m in modules | {"cli"})
    assert has_json == ("--json" in argv)


def test_every_export_resolves_and_is_listed():
    unlisted, unresolved = python(
        "import skewbrace as sk\n"
        "unlisted = [n for n in sk.__all__ if n not in dir(sk)]\n"
        "unresolved = [n for n in sk.__all__ if getattr(sk, n, None) is None]\n"
        "print((unlisted, unresolved))"
    )
    assert unlisted == []
    assert unresolved == []


def test_star_import_binds_all():
    missing = python(
        "import skewbrace\n"
        "ns = {}\n"
        "exec('from skewbrace import *', ns)\n"
        "print(sorted(set(skewbrace.__all__) - set(ns)))"
    )
    assert missing == []


def test_unknown_name_is_an_attribute_error():
    raised = python(
        "import skewbrace\n"
        "try:\n"
        "    skewbrace.nope\n"
        "except AttributeError as exc:\n"
        "    print(repr(str(exc)))"
    )
    assert raised == "module 'skewbrace' has no attribute 'nope'"


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["validate", NAB6], False),
        (["biquandle", NAB6], False),
        (["ideals", NAB6], False),
        (["color", NAB6, "O1+ / U1+"], True),
        (["invariant", NAB6, "O1+ / U1+"], True),
        (["invariant", NAB6, "O1+ / U1+", "--type", "sb"], True),
        (["check-moves", NAB6, "O1+ / U1+", "--trials", "2"], True),
        (["batch", NAB6, LINKS], True),
    ],
    ids=["validate", "biquandle", "ideals", "color", "count", "sb", "check-moves", "batch"],
)
def test_only_coloring_commands_load_numpy(argv, loads_numpy):
    code, loaded = python(
        "import sys\n"
        "from skewbrace.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print((code, 'numpy' in sys.modules))",
        *argv,
    )
    assert (code, loaded) == (0, loads_numpy)


@pytest.mark.parametrize("module", ["tables", "biquandle", "closures", "gauss", "moves"])
def test_algebra_modules_load_no_numpy(module):
    assert python(f"import sys, skewbrace.{module}\nprint('numpy' in sys.modules)") is False
