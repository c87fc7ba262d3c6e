"""Independent checkers: L-algebra facts computed without importing lalg.

Tables are lists of rows of element indices, ``t[x][y]`` being x*y, with a
unit index.  Subsets are int bitmasks.  Every routine follows the textbook
definition directly and favours plainness over speed; the benchmark calls
them outside its timed region.
"""

from __future__ import annotations

from itertools import permutations, product


def axioms_hold(t, unit: int) -> bool:
    """Unit laws, the exchange identity and antisymmetry."""
    n = len(t)
    for x in range(n):
        if t[x][x] != unit or t[x][unit] != unit or t[unit][x] != x:
            return False
    for x in range(n):
        for y in range(n):
            if x != y and t[x][y] == unit and t[y][x] == unit:
                return False
            for z in range(n):
                if t[t[x][y]][t[x][z]] != t[t[y][x]][t[y][z]]:
                    return False
    return True


def members(mask: int):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def is_ideal(t, unit: int, mask: int) -> bool:
    """1 in I; x, x*y in I => y in I; x in I => (x*y)*y, y*x, y*(x*y) in I."""
    if not mask >> unit & 1:
        return False
    n = len(t)
    for x in members(mask):
        for y in range(n):
            if mask >> t[x][y] & 1 and not mask >> y & 1:
                return False
            for z in (t[t[x][y]][y], t[y][x], t[y][t[x][y]]):
                if not mask >> z & 1:
                    return False
    return True


def closure(t, unit: int, mask: int) -> int:
    """The least ideal containing ``mask``: add what the rules demand until stable."""
    n = len(t)
    mask |= 1 << unit
    grew = True
    while grew:
        grew = False
        for x in members(mask):
            for y in range(n):
                need = 1 << t[t[x][y]][y] | 1 << t[y][x] | 1 << t[y][t[x][y]]
                if mask >> t[x][y] & 1:
                    need |= 1 << y
                if need & ~mask:
                    mask |= need
                    grew = True
    return mask


def all_ideals(t, unit: int) -> list[int]:
    """Every ideal, found by adding one element at a time from the bottom.

    Each ideal I above the bottom is the closure of a smaller ideal plus one
    element of I, so this search reaches all of them.
    """
    n = len(t)
    bottom = closure(t, unit, 0)
    seen = {bottom}
    todo = [bottom]
    while todo:
        ideal = todo.pop()
        for x in range(n):
            if not ideal >> x & 1:
                bigger = closure(t, unit, ideal | 1 << x)
                if bigger not in seen:
                    seen.add(bigger)
                    todo.append(bigger)
    return sorted(seen)


def primes_by_definition(ideals: list[int], full: int) -> list[int]:
    """Proper P with A n B inside P only when A or B is inside P."""
    out = []
    for p in ideals:
        if p == full:
            continue
        outside = [a for a in ideals if a & ~p]
        if all((a & b) & ~p for a in outside for b in outside):
            out.append(p)
    return out


def is_meet_irreducible(t, unit: int, p: int) -> bool:
    """A proper ideal with exactly one cover among the ideals above it.

    In a finite distributive lattice this is primality; the ladder and query
    inputs are products of chains and Boolean algebras, whose ideal lattices
    are distributive by construction.
    """
    n = len(t)
    full = (1 << n) - 1
    if p == full:
        return False
    above = {closure(t, unit, p | 1 << x) for x in range(n) if not p >> x & 1}
    covers = [a for a in above if not any(b != a and b & ~a == 0 for b in above)]
    return len(covers) == 1


def restrict(t, mask: int):
    """The table of a subset closed under the operation, reindexed, plus the index map."""
    elems = members(mask)
    pos = {e: k for k, e in enumerate(elems)}
    return [[pos[t[a][b]] for b in elems] for a in elems], elems


def standalone_prime_escapes(t, unit: int, ideal: int) -> bool:
    """Is some prime of the ideal, read as an algebra of its own, not an ideal of t?"""
    sub, elems = restrict(t, ideal)
    sub_unit = elems.index(unit)
    sub_ideals = all_ideals(sub, sub_unit)
    for p in primes_by_definition(sub_ideals, (1 << len(elems)) - 1):
        lifted = 0
        for k in members(p):
            lifted |= 1 << elems[k]
        if not is_ideal(t, unit, lifted):
            return True
    return False


def canonical_form(t) -> tuple:
    """Least flattened table over the relabellings that keep the unit at index 0."""
    n = len(t)
    best = None
    for rest in permutations(range(1, n)):
        p = (0,) + rest  # old index i becomes p[i]
        new = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                new[p[i]][p[j]] = p[t[i][j]]
        flat = tuple(v for row in new for v in row)
        if best is None or flat < best:
            best = flat
    return best


def brute_force_counts(n: int) -> tuple[int, int]:
    """(labelled tables with unit 0, isomorphism classes) by trying every table.

    The unit laws fix row 0, column 0 and the diagonal; every other cell
    runs over all n values.  Feasible up to n = 4 (4^6 tables).
    """
    free = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    labelled = 0
    classes = set()
    for values in product(range(n), repeat=len(free)):
        t = [[j if i == 0 else (0 if j == 0 or i == j else -1) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(free, values):
            t[i][j] = v
        if axioms_hold(t, 0):
            labelled += 1
            classes.add(canonical_form(t))
    return labelled, len(classes)
