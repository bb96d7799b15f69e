"""Signed Gauss codes for oriented classical and virtual links.

A code is a `/`-separated list of components. Each component is either a
sequence of passage tokens like `O3+` or `U12-`, or the single token `-`
for a closed component with no crossings. Every crossing id must occur
exactly once as O and once as U, with the same sign both times. Virtual
crossings are never written: the signed Gauss code already determines the
virtual link.
"""

from __future__ import annotations

import re

from .tables import DomainError, Record

__all__ = [
    "Passage",
    "LinkDiagram",
    "CrossingConstraint",
    "SemiarcSystem",
    "GaussCodeError",
    "GaussSyntaxError",
    "CrossingUsedWrong",
    "SignMismatch",
    "parse_gauss_code",
    "format_gauss_code",
    "looks_like_gauss_code",
    "build_constraints",
    "parse_link_file",
]

_TOKEN = re.compile(r"([OU])([0-9]+)([+-])\Z")
_ALONE = "`-` must be the only token in its component"


class GaussCodeError(DomainError):
    """Base class for Gauss-code parse and validation failures."""


class GaussSyntaxError(GaussCodeError):
    def __init__(self, position: int, message: str) -> None:
        self.position = position
        super().__init__(f"bad Gauss code at offset {position}: {message}")


class CrossingUsedWrong(GaussCodeError):
    def __init__(self, crossing_id: int) -> None:
        self.crossing_id = crossing_id
        super().__init__(
            f"crossing {crossing_id} must appear exactly once over and once under"
        )


class SignMismatch(GaussCodeError):
    def __init__(self, crossing_id: int) -> None:
        self.crossing_id = crossing_id
        super().__init__(f"crossing {crossing_id} appears with two different signs")


class Passage(Record):
    """One pass through a crossing: over or under it, with its sign, +1 or -1."""

    __slots__ = ("crossing", "over", "sign")


class LinkDiagram(Record):
    """Oriented multi-component diagram; a component with no passages is a
    zero-crossing unknotted component."""

    __slots__ = ("components",)

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def crossing_count(self) -> int:
        return sum(len(comp) for comp in self.components) // 2

    @property
    def crossing_ids(self) -> tuple[int, ...]:
        ids = {p.crossing for comp in self.components for p in comp}
        return tuple(sorted(ids))


class CrossingConstraint(Record):
    """Semiarc indices incident to one classical crossing."""

    __slots__ = ("crossing", "sign", "under_in", "over_in", "under_out", "over_out")


class SemiarcSystem(Record):
    __slots__ = ("semiarc_count", "constraints")


def looks_like_gauss_code(text: str) -> bool:
    """Cheap token-level test; true when every token could belong to a code.

    Used to tell inline codes apart from (possibly missing) file names;
    a true result does not promise that parse_gauss_code will accept it.
    """
    tokens = text.split()
    return bool(tokens) and all(
        tok in ("/", "-") or _TOKEN.match(tok) for tok in tokens
    )


def parse_gauss_code(text: str) -> LinkDiagram:
    """Parse and validate a signed Gauss code."""
    components: list[list[Passage]] = []
    current: list[Passage] = []
    marker: int | None = None  # offset of this component's `-`
    boundary = 0  # offset just past the last `/`
    for m in re.finditer(r"\S+", text):
        tok, at = m.group(), m.start()
        if tok == "/":
            if not current and marker is None:
                raise GaussSyntaxError(at, "empty component")
            components.append(current)
            current, marker, boundary = [], None, m.end()
            continue
        if tok == "-":
            if marker is not None or current:
                raise GaussSyntaxError(at, _ALONE)
            marker = at
            continue
        tm = _TOKEN.match(tok)
        if tm is None:
            raise GaussSyntaxError(at, f"expected a passage like O1+ or `-`, got {tok!r}")
        try:
            cid = int(tm.group(2))
        except ValueError:
            # past the interpreter's limit on digits in an int
            what = f"crossing id of {len(tm.group(2))} digits is too long"
            raise GaussSyntaxError(at, what) from None
        if cid == 0:
            raise GaussSyntaxError(at, "crossing ids start at 1")
        if marker is not None:
            raise GaussSyntaxError(marker, _ALONE)
        current.append(Passage(cid, tm.group(1) == "O", 1 if tm.group(3) == "+" else -1))
    if not current and marker is None:
        raise GaussSyntaxError(boundary, "empty component" if components else "empty code")
    components.append(current)

    uses: dict[int, list[Passage]] = {}
    for comp in components:
        for p in comp:
            uses.setdefault(p.crossing, []).append(p)
    for cid in sorted(uses):
        ps = uses[cid]
        if len(ps) != 2 or ps[0].over == ps[1].over:
            raise CrossingUsedWrong(cid)
        if ps[0].sign != ps[1].sign:
            raise SignMismatch(cid)
    return LinkDiagram(tuple(tuple(comp) for comp in components))


def format_gauss_code(d: LinkDiagram) -> str:
    parts = []
    for comp in d.components:
        if not comp:
            parts.append("-")
        else:
            parts.append(
                " ".join(
                    f"{'O' if p.over else 'U'}{p.crossing}{'+' if p.sign > 0 else '-'}"
                    for p in comp
                )
            )
    return " / ".join(parts)


def build_constraints(d: LinkDiagram) -> SemiarcSystem:
    """Number the semiarcs and emit one constraint record per crossing.

    In a component with k passages, passage j runs from semiarc (j-1) mod k
    into semiarc j (component-local, then globally offset). A component
    with no passages contributes one semiarc and no constraints.
    """
    if not d.components:
        raise GaussCodeError("empty diagram: no components")
    arcs: dict[tuple[int, bool], tuple[int, int]] = {}  # (in, out) semiarcs
    signs: dict[int, int] = {}
    base = 0
    for comp in d.components:
        k = len(comp)
        for j, p in enumerate(comp):
            arcs[p.crossing, p.over] = (base + (j - 1) % k, base + j)
            signs[p.crossing] = p.sign
        base += k or 1
    constraints = []
    for cid in sorted(signs):
        (under_in, under_out), (over_in, over_out) = arcs[cid, False], arcs[cid, True]
        constraints.append(
            CrossingConstraint(cid, signs[cid], under_in, over_in, under_out, over_out)
        )
    return SemiarcSystem(base, tuple(constraints))


def parse_link_file(text: str) -> dict[str, LinkDiagram]:
    """Parse a `name := code` link file; `#` starts a comment line."""
    links: dict[str, LinkDiagram] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":=" not in stripped:
            raise GaussCodeError(f"line {lineno}: expected `name := code`")
        name, code = stripped.split(":=", 1)
        name = name.strip()
        if not name:
            raise GaussCodeError(f"line {lineno}: empty link name")
        if name in links:
            raise GaussCodeError(f"line {lineno}: duplicate link name {name!r}")
        try:
            links[name] = parse_gauss_code(code.strip())
        except GaussCodeError as exc:
            raise GaussCodeError(f"line {lineno} ({name}): {exc}") from exc
    return links
