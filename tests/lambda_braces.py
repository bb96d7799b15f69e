"""Skew braces of order 8 from lambda maps, and the witness fixture.

Fix a group (A, *). Every map lambda: A -> Aut(A, *) with

    lambda(a * lambda_a(b)) = lambda_a lambda_b

gives a skew brace with additive group (A, *) and a o b = a * lambda_a(b)
(Guarnieri and Vendramin, "Skew braces and the Yang-Baxter equation",
Math. Comp. 86 (2017)). Over the quaternion group Q8 this finds 28 lambda
maps and over the dihedral group D8 20, in under a second.

A witness is a brace on which the classical and the virtual Hopf link have
the same coloring count but different polynomials. Run

    PYTHONPATH=src python tests/lambda_braces.py

to count the witnesses over Q8 and D8 and print the file form of the first
one over Q8, which is `tests/q8_witness.txt`. This search is not a test;
`tests/test_acceptance.py` checks the committed fixture.
"""

from __future__ import annotations

from itertools import permutations

from skewbrace import (
    OperationTable,
    counting_invariant,
    format_brace_file,
    ideal_polynomial,
    parse_gauss_code,
    sb_polynomial,
    validate_skew_brace,
)

HOPF = "O1+ U2+ / O2+ U1+"
VIRTUAL_HOPF = "O1+ / U1+"

# units 0..3 stand for 1, i, j, k: _UNITS[u, v] = (s, w) when u v = (-1)^s w
_UNITS = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def q8() -> list[list[int]]:
    """Q8 on 0..7, element 4s + u standing for (-1)^s times unit u."""
    def mul(x: int, y: int) -> int:
        (sx, ux), (sy, uy) = divmod(x, 4), divmod(y, 4)
        s, u = _UNITS[ux, uy]
        return (sx + sy + s) % 2 * 4 + u

    return [[mul(x, y) for y in range(8)] for x in range(8)]


def d8() -> list[list[int]]:
    """D8 on 0..7, element a + 4b standing for r^a s^b, with s r = r^-1 s."""
    def mul(x: int, y: int) -> int:
        (b1, a1), (b2, a2) = divmod(x, 4), divmod(y, 4)
        return (a1 + (-a2 if b1 else a2)) % 4 + 4 * ((b1 + b2) % 2)

    return [[mul(x, y) for y in range(8)] for x in range(8)]


def automorphisms(t: list[list[int]]) -> list[tuple[int, ...]]:
    """Every permutation fixing the identity 0 that respects the table."""
    n = len(t)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    return [
        f
        for f in ((0, *p) for p in permutations(range(1, n)))
        if all(f[t[x][y]] == t[f[x]][f[y]] for x, y in pairs)
    ]


def lambda_maps(t: list[list[int]]) -> list[tuple[tuple[int, ...], ...]]:
    """Every lambda map of the group, by depth-first choice of lambda on the
    smallest unassigned element, closing each choice under the law."""
    n = len(t)
    auts = automorphisms(t)
    found = []

    def extend(lam: dict[int, tuple[int, ...]]) -> None:
        grew = True
        while grew:
            grew = False
            for a in list(lam):
                for b in list(lam):
                    c = t[a][lam[a][b]]
                    need = tuple(lam[a][v] for v in lam[b])
                    if c not in lam:
                        lam[c] = need
                        grew = True
                    elif lam[c] != need:
                        return
        free = [x for x in range(n) if x not in lam]
        if not free:
            found.append(tuple(lam[x] for x in range(n)))
            return
        for f in auts:
            extend({**lam, free[0]: f})

    extend({0: tuple(range(n))})
    return found


def brace_of(t, lam):
    """The skew brace (A, o, *) of a lambda map, elements shifted to 1..n."""
    n = len(t)
    circ = [[t[a][lam[a][b]] + 1 for b in range(n)] for a in range(n)]
    star = [[v + 1 for v in row] for row in t]
    return validate_skew_brace(OperationTable.from_rows(circ), OperationTable.from_rows(star))


def invariants(brace, code: str) -> tuple[int, str, str]:
    d = parse_gauss_code(code)
    return (
        counting_invariant(brace, d),
        str(sb_polynomial(brace, d)),
        str(ideal_polynomial(brace, d)),
    )


def is_witness(brace) -> bool:
    """True when the two Hopf links share a count but not both polynomials."""
    hopf, virtual = invariants(brace, HOPF), invariants(brace, VIRTUAL_HOPF)
    return hopf[0] == virtual[0] and hopf != virtual


def main() -> None:
    first = None
    for name, t in (("Q8", q8()), ("D8", d8())):
        maps = lambda_maps(t)
        found = [b for b in (brace_of(t, lam) for lam in maps) if is_witness(b)]
        print(f"{name}: {len(maps)} lambda maps, {len(found)} witnesses")
        first = first or found[0]
    print(format_brace_file(first), end="")


if __name__ == "__main__":
    main()
