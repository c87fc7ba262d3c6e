"""Recount the L-algebras on n elements without lalg: labelled and up to isomorphism.

    python3 bench/recount.py 5        # prints: n=5 labelled=12296 iso=632

The benchmark pins the n = 5 class count (632) instead of recomputing it on
every run; this script is the independent recomputation.  It fills the free
cells in row-major order and, after each assignment, tests every exchange
instance whose six cells are all known, plus antisymmetry.  At n = 5 it
takes about 20 s (Python 3.11, one core of a 2-core VM).
"""

from __future__ import annotations

import sys

from oracle import axioms_hold, canonical_form


def tables(n: int):
    t = [[j if i == 0 else (0 if j == 0 or i == j else -1) for j in range(n)] for i in range(n)]
    free = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]

    def consistent() -> bool:
        for x, y, z in triples:
            a, b, c, d = t[x][y], t[x][z], t[y][x], t[y][z]
            if a < 0 or b < 0 or c < 0 or d < 0:
                continue
            lhs, rhs = t[a][b], t[c][d]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
        return True

    def fill(k: int):
        if k == len(free):
            if axioms_hold(t, 0):
                yield [row[:] for row in t]
            return
        i, j = free[k]
        for v in range(n):
            if v == 0 and t[j][i] == 0:
                continue  # antisymmetry
            t[i][j] = v
            if consistent():
                yield from fill(k + 1)
        t[i][j] = -1

    yield from fill(0)


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 5
    labelled = 0
    classes = set()
    for t in tables(n):
        labelled += 1
        classes.add(canonical_form(t))
    print(f"n={n} labelled={labelled} iso={len(classes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
