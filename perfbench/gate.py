"""Correctness gate: every job's output is checked outside the timed runs.

A job fails on a non-zero exit, a traceback, a timeout, or any of:
- its output differs from the output recorded for its kind (`expected.json`);
- a count or coloring list differs from `brute_force_colorings` on the job's
  diagram, where n**s <= 10**6;
- a padded diagram's count or colorings break the padding law: Phi^Z(L + k
  unknots) = n**k Phi^Z(L), the colorings of L times every pad coloring. The
  colorings of L come from brute force where n**s <= 10**6, else from the
  library's enumeration of the unpadded link;
- a polynomial does not specialise to the count, Phi^SB(1,1) = Phi^I(1) = Phi^Z;
- `check-moves` does not report `all invariant: yes`.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import skewbrace as sk

from runner import JobResult
from workloads import BRACE_SIZE, LINKS, Job, code_pool

BRUTE_LIMIT = 10**6
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
_TERM = re.compile(r"(-?\d*)((?:[uv](?:\^\d+)?)*)")
_BATCH_LINE = re.compile(r"(\S+): count=(\d+) sb=(.*) ideal=(.*)")


class Wrong(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


def poly_at_one(text: str) -> int:
    """Value of a printed polynomial at u = v = 1."""
    total = 0
    for term in text.split(" + "):
        m = _TERM.fullmatch(term.strip())
        expect(m is not None, f"unreadable polynomial term {term!r}")
        coeff, body = m.groups()
        if not body:
            total += int(coeff)
        else:
            total += -1 if coeff == "-" else int(coeff or 1)
    return total


def colorings_array(stdout: str, semiarcs: int) -> np.ndarray:
    head, _, body = stdout.partition("\n")
    expect(head == "# semiarc " + " ".join(map(str, range(semiarcs))), "bad color header")
    flat = np.array(body.split(), dtype=np.int64)
    expect(flat.size % semiarcs == 0, "ragged color output")
    return flat.reshape(-1, semiarcs)


def is_lex_sorted(rows: np.ndarray) -> bool:
    if len(rows) < 2:
        return True
    order = np.lexsort(rows.T[::-1])
    return bool(np.array_equal(order, np.arange(len(rows))))


def digest(rows: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<i8").tobytes()).hexdigest()


def canonical_columns(job: Job) -> list[int]:
    """Column order that puts a padded code's semiarcs in canonical order."""
    comps = job.link.split(" / ")
    widths = [1 if c == "-" else len(c.split()) for c in comps]
    starts = np.concatenate([[0], np.cumsum(widths)])
    cols = []
    for canon in range(len(comps)):
        j = job.layout.index(canon)
        cols += range(starts[j], starts[j + 1])
    return cols


class Gate:
    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.pool = dict(code_pool())
        self._brute_cache: dict[tuple[str, str], np.ndarray | None] = {}

    def _brute(self, brace: str, code: str) -> np.ndarray | None:
        """Sorted brute-force colorings, or None where n**s exceeds the limit."""
        key = (brace, code)
        if key not in self._brute_cache:
            d = sk.parse_gauss_code(code)
            s = sk.build_constraints(d).semiarc_count
            rows = None
            if BRACE_SIZE[brace] ** s <= BRUTE_LIMIT:
                found = sk.brute_force_colorings(sk.load_bundled_brace(brace), d)
                rows = np.array(found, dtype=np.int64).reshape(-1, s)
                rows = rows[np.lexsort(rows.T[::-1])]
            self._brute_cache[key] = rows
        return self._brute_cache[key]

    def _base(self, job: Job) -> np.ndarray:
        """Colorings of the unpadded link: brute force where it is within the
        limit, else the library's own enumeration of the small link."""
        rows = self._brute(job.brace, LINKS[job.base])
        if rows is None:
            found = sk.enumerate_colorings(sk.load_bundled_brace(job.brace), sk.parse_gauss_code(LINKS[job.base]))
            rows = np.array(found, dtype=np.int64)
        return rows

    def _count(self, job: Job) -> int:
        """Phi^Z of the job's diagram by the padding law, checked against
        brute force on the diagram itself where that is within the limit."""
        count = len(self._base(job)) * BRACE_SIZE[job.brace] ** job.pads
        direct = self._brute(job.brace, job.link)
        expect(direct is None or len(direct) == count, "padding law fails against brute force")
        return count

    def _want(self, key: str) -> str:
        expect(key in self.expected, f"no recorded output for {key}")
        return self.expected[key]

    def check(self, r: JobResult) -> str:
        """The reason the job failed, or '' if it passed."""
        if r.failure:
            return r.failure
        try:
            getattr(self, "_" + r.job.command.replace("-", "_"))(r.job, r.stdout)
        except Wrong as exc:
            return f"wrong output: {exc}"
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        return ""

    def _validate(self, job: Job, out: str) -> None:
        expect(out == self._want(job.key), "validate output differs")

    def _invariant(self, job: Job, out: str) -> None:
        expect(out == self._want(job.key), "output differs from the recorded one")
        count = self._count(job)
        if job.inv_type == "count":
            value = int(out)
        elif job.json_out:
            value = sum(t["coeff"] for t in json.loads(out)["terms"])
        else:
            value = poly_at_one(out.strip())
        expect(value == count, f"value at 1 is {value}, Phi^Z is {count}")

    def _color(self, job: Job, out: str) -> None:
        n, k = BRACE_SIZE[job.brace], job.pads
        base = self._base(job)
        rows = colorings_array(out, base.shape[1] + k)
        expect(is_lex_sorted(rows), "colorings not in lexicographic order")
        direct = self._brute(job.brace, job.link)
        expect(direct is None or np.array_equal(rows, direct), "colorings differ from brute force")
        canon = rows[:, canonical_columns(job)]
        canon = canon[np.lexsort(canon.T[::-1])]
        pads = np.indices((n,) * k).reshape(k, -1).T + 1
        oracle = np.hstack([np.repeat(base, len(pads), axis=0), np.tile(pads, (len(base), 1))])
        expect(np.array_equal(canon, oracle), "colorings differ from brute force times free pads")
        expect(digest(canon) == self._want(job.key), "colorings differ from the recorded ones")

    def _batch(self, job: Job, out: str) -> None:
        names = [line.split(" := ")[0] for line in job.link.splitlines()]
        lines = out.splitlines()
        expect(len(lines) == len(names), f"{len(lines)} lines for {len(names)} links")
        for name, line in zip(names, lines):
            m = _BATCH_LINE.fullmatch(line)
            expect(m is not None and m.group(1) == name, f"bad batch line {line!r}")
            want = self._want(f"random_virtual/{job.brace}/{self.pool[name]}")
            expect(line.split(": ", 1)[1] == want, f"{name} differs from the recorded output")
            count = int(m.group(2))
            expect(poly_at_one(m.group(3)) == count == poly_at_one(m.group(4)), f"{name} does not specialise to its count")

    def _check_moves(self, job: Job, out: str) -> None:
        expect(out == self._want(job.key), "output differs from the recorded one")
        lines = out.splitlines()
        expect(lines[-1].endswith("all invariant: yes"), "moves changed an invariant")
        count = len(self._base(job))
        sb = poly_at_one(lines[0].removeprefix("base sb: "))
        ideal = poly_at_one(lines[1].removeprefix("base ideal: "))
        expect(sb == ideal == count, "base polynomials do not specialise to Phi^Z")


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
