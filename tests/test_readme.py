"""The README's examples run and show what they print."""

from __future__ import annotations

import re
import shlex

from skewbrace.cli import main

from conftest import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(section: str, lang: str) -> list[str]:
    """The bodies of the `lang` code blocks in the README section whose
    heading is `section`."""
    body = README.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def test_the_library_block_shows_what_it_returns(capsys):
    """Each commented line shows its value: a number, the line it prints,
    or how many tuples it returns, in order."""
    (block,) = fenced("## Library", "python")
    ns: dict = {}
    exec(block, ns)
    printed = capsys.readouterr().out.splitlines()
    shown = [line.split("  # ", 1) for line in block.splitlines() if "  # " in line]
    kinds = set()
    for code, note in shown:
        if code.startswith("print("):
            assert printed.pop(0) == note
            kinds.add("print")
        elif note.isdigit():
            assert eval(code, ns) == int(note)
            kinds.add("value")
        elif note.endswith(" tuples, lexicographic"):
            rows = eval(code, ns)
            assert len(rows) == int(note.split()[0]) and rows == sorted(rows)
            kinds.add("tuples")
    assert printed == [] and kinds == {"print", "value", "tuples"}


def test_the_cli_examples_print_what_they_show(capsys, monkeypatch):
    """Each `$ skewbrace` line in "CLI" and "Invariants", run from the
    repository root, exits 0 and prints the lines under it; a last line
    `...` stands for more lines."""
    monkeypatch.chdir(ROOT)
    examples = [
        block
        for section in ("## CLI", "## Invariants")
        for block in fenced(section, "sh")
        if block.startswith("$ skewbrace")
    ]
    assert len(examples) == 2
    runs = 0
    for example in "\n\n".join(examples).split("\n\n"):
        command, *shown = example.replace("\\\n", " ").strip().splitlines()
        code = main(shlex.split(command)[2:])
        out = capsys.readouterr().out.splitlines()
        if shown[-1] == "...":
            shown.pop()
            out = out[: len(shown)]
        assert (code, out) == (0, shown)
        runs += 1
    assert runs == 4
