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


def run(*argv: str) -> subprocess.CompletedProcess:
    """Run `python argv...` with `src` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def python(code: str, *argv: str):
    """Run `python -c code argv...` with `src` on the path; the last stdout
    line, read as a Python literal."""
    out = run("-c", code, *argv)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    loaded = python(
        "import sys, skewbrace\n"
        "print((sorted(m for m in sys.modules if m.startswith('skewbrace')), 'numpy' in sys.modules))"
    )
    assert loaded == (["skewbrace"], False)


# every command reads and validates a brace
BRACE = {"tables", "axioms", "bracefile"}
COLORING = BRACE | {"biquandle", "gauss", "plan", "coloring"}
POLYNOMIALS = COLORING | {"closures", "invariants"}
# the modules of the library's own code, with the public names each
# defines: no link command loads them, since every module a job loads adds
# the code it keeps to the job's peak RSS
LIBRARY_ONLY = {
    "properties": [
        "AxiomCheck", "AxiomReport", "verify_biquandle_axioms", "r_map",
    ],
    "substructures": [
        "EmptyGenerators", "group_closure", "biquandle_closure", "ideal_closure", "is_ideal",
        "enumerate_ideals",
    ],
    "oracle": ["brute_force_colorings"],
}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["validate", NAB6], BRACE),
        (["biquandle", NAB6], BRACE | {"biquandle"}),
        (["ideals", NAB6], BRACE | {"closures", "substructures"}),
        (["color", NAB6, "O1+ / U1+"], COLORING | {"enumeration"}),
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
    """A plain command line never loads argparse: `-h`, usage errors and
    unusual option forms are the only lines that do."""
    code, loaded, has_json, has_argparse = python(
        "import sys\n"
        "from skewbrace.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print((code, sorted(m for m in sys.modules if m.startswith('skewbrace.')),"
        " 'json' in sys.modules, ('argparse' in sys.modules, 'gettext' in sys.modules)))",
        *argv,
    )
    assert code == 0
    assert loaded == sorted(f"skewbrace.{m}" for m in modules | {"cli"})
    assert has_json == ("--json" in argv)
    assert has_argparse == (False, False)


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


COMMANDS = [
    ["validate", NAB6],
    ["biquandle", NAB6],
    ["ideals", NAB6],
    ["color", NAB6, "O1+ / U1+"],
    ["invariant", NAB6, "O1+ / U1+"],
    ["invariant", NAB6, "O1+ / U1+", "--json"],
    ["invariant", NAB6, "O1+ / U1+", "--type", "sb"],
    ["invariant", NAB6, "O1+ / U1+", "--type", "ideal", "--json"],
    ["check-moves", NAB6, "O1+ / U1+", "--trials", "2"],
    ["batch", NAB6, LINKS],
]
COMMAND_IDS = [
    "validate", "biquandle", "ideals", "color", "count", "count-json",
    "sb", "ideal-json", "check-moves", "batch",
]
SOURCES = sorted((ROOT / "src" / "skewbrace").glob("*.py"))
# every submodule, by its name in the package
SUBMODULES = [path.stem for path in SOURCES if path.stem != "__init__"]
MODULES = ["skewbrace", *(f"skewbrace.{m}" for m in SUBMODULES)]
# `dataclasses` loads `inspect`, `ast` and `dis`: about 9 ms of every job,
# and as much again to decorate the record classes
SLOW_STDLIB = "('dataclasses' in sys.modules, 'inspect' in sys.modules)"


def test_library_only_names_resolve_from_their_modules():
    """Every name that no link command runs still resolves as
    `skewbrace.<name>`, from its library-only module."""
    names = [name for names in LIBRARY_ONLY.values() for name in names]
    homes = python(
        "import skewbrace\n"
        f"print([getattr(skewbrace, name).__module__ for name in {names!r}])"
    )
    assert homes == [f"skewbrace.{m}" for m, names in LIBRARY_ONLY.items() for _ in names]


@pytest.mark.parametrize("argv", COMMANDS, ids=COMMAND_IDS)
def test_only_coloring_commands_load_numpy(argv):
    """No command loads numpy, the coloring commands included."""
    code, loaded = python(
        "import sys\n"
        "from skewbrace.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print((code, 'numpy' in sys.modules))",
        *argv,
    )
    assert (code, loaded) == (0, False)


@pytest.mark.parametrize("argv", COMMANDS, ids=COMMAND_IDS)
def test_no_command_loads_dataclasses_or_inspect(argv):
    code, loaded = python(
        "import sys\n"
        "from skewbrace.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print((code, {SLOW_STDLIB}))",
        *argv,
    )
    assert (code, loaded) == (0, (False, False))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_loads_dataclasses_or_inspect(module):
    assert python(f"import sys, {module}\nprint({SLOW_STDLIB})") == (False, False)


@pytest.mark.parametrize("module", SUBMODULES)
def test_algebra_modules_load_no_numpy(module):
    assert python(f"import sys, skewbrace.{module}\nprint('numpy' in sys.modules)") is False


def test_oracle_and_tables_load_no_numpy():
    """The package has no runtime dependency: the brute-force oracle and
    every use of a table run on the standard library alone."""
    found, loaded = python(
        "import sys\n"
        "import skewbrace as sk\n"
        "d = sk.bundled_links()['vhopf']\n"
        "found = sk.brute_force_colorings(sk.load_bundled_brace('nab6'), d)\n"
        "t = sk.OperationTable.from_rows([[1, 2], [2, 1]])\n"
        "assert hash(t) == hash(sk.OperationTable(2, t.rows)) and t.value(2, 2) == 1\n"
        "print((len(found), 'numpy' in sys.modules))"
    )
    assert (found, loaded) == (24, False)


def test_the_oracle_loads_no_kernel_module():
    """The reference search shares no code with the plan compiler and the
    kernel it checks."""
    loaded = python(
        "import sys, skewbrace\n"
        "skewbrace.brute_force_colorings\n"
        "print(sorted(m for m in sys.modules if m.startswith('skewbrace.')))"
    )
    assert loaded == [f"skewbrace.{m}" for m in ("axioms", "biquandle", "gauss", "oracle", "tables")]


def _sibling_imports(path: Path) -> set[str]:
    """The modules of the package that `path` imports by `from .x import`,
    at its top or inside a function."""
    return {
        node.module
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_the_import_graph_has_no_cycle():
    """No module imports one that imports it back, directly or through
    others, whether at the top or when a function runs."""
    graph = {path.stem: _sibling_imports(path) for path in SOURCES}
    # modules every path from which is known to end
    done: set[str] = set()

    def cycle(path: list[str]) -> list[str] | None:
        for m in sorted(graph[path[-1]] - done):
            if m in path:
                return [*path[path.index(m) :], m]
            if found := cycle([*path, m]):
                return found
        done.add(path[-1])
        return None

    assert next(filter(None, (cycle([m]) for m in sorted(graph))), None) is None


@pytest.mark.parametrize("argv", [*COMMANDS, ["invariant", "-h"]], ids=[*COMMAND_IDS, "help"])
def test_the_running_cli_is_not_compiled_again(argv):
    """Run as `python -m skewbrace.cli`, the CLI module is `__main__`, so a
    module that imported `skewbrace.cli` would compile it a second time."""
    out = run("-X", "importtime", "-m", "skewbrace.cli", *argv)
    assert out.returncode == 0, out.stderr
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "skewbrace" in imported
    assert "skewbrace.cli" not in imported


# with no bytecode cache every job compiles its modules from source, and
# compiling one holds about 400 B per AST node until it is done; malloc
# keeps that high-water mark, so a job's peak RSS grows with the largest
# module it compiles. It grows with every module it loads too, by the code
# that module keeps, which is why LIBRARY_ONLY code lives off the link
# commands' paths
MAX_NODES = 1500


def test_no_module_is_too_large_to_compile():
    nodes = {
        path.name: sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        for path in SOURCES
    }
    assert {name: n for name, n in nodes.items() if n > MAX_NODES} == {}
