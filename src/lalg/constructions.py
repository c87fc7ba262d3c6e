"""Builders: products, ordered sums, poset algebras, fixtures, enumeration.

The enumerator generates every operation table of a given size satisfying
the axioms, by backtracking over the cells that the unit laws leave free,
with constraint propagation on the exchange identity and antisymmetry; up
to isomorphism it cuts every partial table that a unit-fixing relabeling
already makes smaller.  The regression fixtures are the concrete algebras
the law harness grew up on; each carries the facts it is expected to
reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Iterator, Mapping

from .core import FiniteLAlgebra, validate
from .errors import SizeTooLarge


@dataclass(frozen=True)
class PosetSpec:
    """A finite poset given by covering pairs, with a designated top."""

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]  # (low, high) pairs
    top: str

    def leq_matrix(self) -> list[list[bool]]:
        """Reflexive-transitive closure of the covers; checked to be an order."""
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("poset element labels are not distinct")
        idx = {e: i for i, e in enumerate(self.elements)}
        if self.top not in idx:
            raise ValueError(f"top {self.top!r} is not an element")
        leq = [[i == j for j in range(n)] for i in range(n)]
        for low, high in self.covers:
            if low not in idx or high not in idx:
                raise ValueError(f"cover ({low!r}, {high!r}) uses unknown labels")
            leq[idx[low]][idx[high]] = True
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ValueError(
                        f"covers are cyclic around {self.elements[i]!r} and {self.elements[j]!r}"
                    )
        t = idx[self.top]
        for i in range(n):
            if not leq[i][t]:
                raise ValueError(f"{self.top!r} is not above {self.elements[i]!r}")
        return leq


def poset_algebra(spec: PosetSpec) -> FiniteLAlgebra:
    """Implication algebra of a poset: x*y = 1 when x <= y, else y.

    The ideals of such an algebra are exactly the non-empty upper sets;
    the tests compare the ideal enumeration against a direct upper-set
    sweep, and nothing is checked here.
    """
    leq = spec.leq_matrix()
    n = len(spec.elements)
    unit = spec.elements.index(spec.top)
    table = tuple(
        tuple(unit if leq[i][j] else j for j in range(n))
        for i in range(n)
    )
    return FiniteLAlgebra(f"poset({spec.top})", tuple(spec.elements), unit, table)


def product(x: FiniteLAlgebra, y: FiniteLAlgebra) -> FiniteLAlgebra:
    """Componentwise product; element order is row-major in the left factor.

    The embedded copies (:func:`product_injections`) multiply as the theory
    demands: an element of one factor applied to an element of the other
    returns the latter, a consequence of the unit laws that the tests check.
    """
    ny = y.n
    labels = tuple(
        f"({lx},{ly})" for lx in x.labels for ly in y.labels
    )
    table = []
    for ix in range(x.n):
        for iy in range(ny):
            row = []
            for jx in range(x.n):
                for jy in range(ny):
                    row.append(x.table[ix][jx] * ny + y.table[iy][jy])
            table.append(tuple(row))
    return FiniteLAlgebra(f"{x.name}x{y.name}", labels, x.unit * ny + y.unit, tuple(table))


def product_injections(
    x: FiniteLAlgebra, y: FiniteLAlgebra
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical embeddings of the factors: v -> (v, 1) and w -> (1, w)."""
    left = tuple(i * y.n + y.unit for i in range(x.n))
    right = tuple(x.unit * y.n + j for j in range(y.n))
    return left, right


def ordered_sum(x: FiniteLAlgebra, y: FiniteLAlgebra) -> FiniteLAlgebra:
    """Stack x strictly below y: carrier (x minus its unit) then y.

    Cross products are a*b = 1 and b*a = a for a in the low part, b in the
    high part; within each part the original operations apply, with the low
    part's old unit value redirected to the unit of the sum.  The table is
    not validated here; ``validate.axioms`` checks it like any other.
    """
    low = [i for i in range(x.n) if i != x.unit]
    n_low = len(low)
    n = n_low + y.n
    unit = n_low + y.unit

    low_labels = [x.labels[i] for i in low]
    high_labels = list(y.labels)
    if len(set(low_labels + high_labels)) != n:
        low_labels = [f"l:{s}" for s in low_labels]
        high_labels = [f"r:{s}" for s in high_labels]
    labels = tuple(low_labels + high_labels)

    pos = {old: k for k, old in enumerate(low)}
    table = [[0] * n for _ in range(n)]
    for a_new, a_old in enumerate(low):
        for b_new, b_old in enumerate(low):
            v = x.table[a_old][b_old]
            table[a_new][b_new] = unit if v == x.unit else pos[v]
        for b in range(y.n):
            table[a_new][n_low + b] = unit  # low < high
    for a in range(y.n):
        for b_new in range(n_low):
            table[n_low + a][b_new] = b_new  # high * low = low
        for b in range(y.n):
            table[n_low + a][n_low + b] = n_low + y.table[a][b]
    return FiniteLAlgebra(f"{x.name}<{y.name}", labels, unit, tuple(map(tuple, table)))


@dataclass(frozen=True)
class Fixture:
    """A named regression algebra with the facts it must reproduce."""

    name: str
    algebra: FiniteLAlgebra
    expected: Mapping[str, object] = field(default_factory=dict)
    factors: tuple[FiniteLAlgebra, FiniteLAlgebra] | None = None


def _b2() -> FiniteLAlgebra:
    return validate([[1, 1], [0, 1]], 1, labels=("0", "1"), name="B2")


def _diamond() -> FiniteLAlgebra:
    # Order 0 < p,q < 1 with p,q incomparable; the four distinguished
    # products p*q = p*0 = q*p = q*0 = 0, everything else forced by the
    # order and the unit laws.
    return validate(
        [
            [0, 1, 2, 3],
            [0, 0, 3, 3],
            [0, 3, 0, 3],
            [0, 0, 0, 0],
        ],
        0,
        labels=("1", "p", "q", "0"),
        name="diamond",
    )


def _chain3() -> FiniteLAlgebra:
    alg = poset_algebra(
        PosetSpec(elements=("1", "a", "b"), covers=(("b", "a"), ("a", "1")), top="1")
    )
    return replace(alg, name="chain3")


def _omega(depth: int) -> FiniteLAlgebra:
    # Chain 1 > x > x2 > ... > x<depth> with one extra element y < x.
    elements = ("y", "1", "x") + tuple(f"x{k}" for k in range(2, depth + 1))
    covers = [("x", "1"), ("y", "x"), ("x2", "x")]
    covers += [(f"x{k + 1}", f"x{k}") for k in range(2, depth)]
    alg = poset_algebra(PosetSpec(elements=elements, covers=tuple(covers), top="1"))
    return replace(alg, name=f"omega{depth}")


def _example5() -> FiniteLAlgebra:
    antichain = poset_algebra(
        PosetSpec(elements=("1", "p", "q"), covers=(("p", "1"), ("q", "1")), top="1")
    )
    alg = ordered_sum(antichain, _b2())
    return replace(alg, name="example5")


def fixtures() -> tuple[Fixture, ...]:
    """The fixture corpus; the hand-typed tables are validated on load."""
    unit = validate([[0]], 0, labels=("1",), name="unit")
    b2 = _b2()
    diamond = _diamond()
    chain3 = _chain3()
    return (
        Fixture("unit", unit, {"ideals": 1, "spectrum": 0, "self_similar": True}),
        Fixture(
            "B2",
            b2,
            {
                "ideals": 2,
                "spectrum": 1,
                "sharp": True,
                "discrete": True,
                "brouwerian": True,
                "meet_closed": True,
                "self_similar": False,
            },
        ),
        Fixture(
            "diamond",
            diamond,
            {
                "ideals": 2,
                "spectrum": 1,
                "quasi_primes": ("p", "q", "0"),
                "sharp": True,
                "discrete": False,
                "brouwerian": False,
                "meet_closed": True,
            },
        ),
        Fixture("chain3", chain3, {"ideals": 3, "spectrum": 2, "brouwerian": True}),
        Fixture("omega3", _omega(3), {"ideals": 7, "spectrum": 4}),
        Fixture("omega5", _omega(5), {"ideals": 11, "spectrum": 6}),
        Fixture(
            "example5",
            _example5(),
            {"ideals": 5, "spectrum": 3, "meet_closed": False},
        ),
        Fixture(
            "B2xB2",
            product(b2, b2),
            {"ideals": 4, "spectrum": 2},
            factors=(b2, b2),
        ),
        Fixture(
            "diamondxB2",
            product(diamond, b2),
            {"ideals": 4, "spectrum": 2},
            factors=(diamond, b2),
        ),
    )


def product_pairs() -> tuple[Fixture, ...]:
    """All nine pairwise products of the three core fixtures."""
    base = {f.name: f.algebra for f in fixtures() if f.name in ("B2", "diamond", "chain3")}
    out = []
    for a in ("B2", "diamond", "chain3"):
        for b in ("B2", "diamond", "chain3"):
            out.append(
                Fixture(
                    f"{a}x{b}",
                    product(base[a], base[b]),
                    factors=(base[a], base[b]),
                )
            )
    return tuple(out)


#: Exhaustive enumeration is capped here; beyond it the raw search space
#: (n^((n-1)(n-2)) free cells) stops being desk-scale.
ENUMERATION_LIMIT = 5

_ENUM_LABELS = ("1", "a", "b", "c", "d")


def enumerate_all(n: int, up_to_iso: bool = False) -> Iterator[FiniteLAlgebra]:
    """Every operation table on n elements satisfying the axioms.

    The unit sits at index 0 (relabelings add nothing; the count contract
    and the canonical form both pin it there).  With ``up_to_iso`` only the
    lexicographically least table over the unit-fixing relabelings of each
    isomorphism class is emitted.  The search prunes at partial tables: a
    subtree is cut as soon as some relabeling reads smaller on the cells
    decided so far (:func:`_is_canonical`), so every table it completes is
    the least of its class.  Its tables satisfy the axioms by propagation.
    """
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    if n > ENUMERATION_LIMIT:
        raise SizeTooLarge(f"exhaustive enumeration is capped at {ENUMERATION_LIMIT}")
    labels = _ENUM_LABELS[:n]
    relabelings = _relabelings(n) if up_to_iso else []
    for count, flat in enumerate(_search_tables(n, relabelings)):
        table = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        yield FiniteLAlgebra(f"enum{n}-{count:05d}", labels, 0, table)


def _relabelings(n: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Each permutation p fixing 0 but the identity, with the cells it reads.

    Cell k = i*n + j of the table relabelled by p is p(flat[s]), with
    s = p^-1(i)*n + p^-1(j).  The (k, s) pairs skip row 0, column 0 and the
    diagonal, which the unit laws fix under every relabeling.
    """
    out = []
    for perm in list(permutations(range(1, n)))[1:]:  # the first is the identity
        p = (0,) + perm
        inv = tuple(p.index(i) for i in range(n))
        cells = tuple(
            (i * n + j, inv[i] * n + inv[j]) for i in range(1, n) for j in range(1, n) if i != j
        )
        out.append((p, cells))
    return out


def _is_canonical(t: list[int], relabelings) -> bool:
    """False when some relabeling already reads smaller on the decided cells.

    ``t`` may be partial (-1 marks an unassigned cell); each relabeling is
    read up to its first undecided cell.  Assigned cells never change
    further down the search, so a beaten prefix stays beaten in every
    completion; on a complete table this is the full canonicity test.
    """
    for p, cells in relabelings:
        for k, s in cells:
            if t[s] < 0 or t[k] < 0:
                break
            v = p[t[s]]
            if v != t[k]:
                if v < t[k]:
                    return False
                break
    return True


def _search_tables(n: int, relabelings) -> Iterator[tuple[int, ...]]:
    """Backtracking over free cells with forced-move propagation.

    The unit laws pre-fill row 0, column 0 and the diagonal.  After each
    assignment the exchange constraints are re-closed: a constraint with all
    four inner cells known and one outer cell known forces the other outer
    cell; fully-known constraints are checked.  Antisymmetry prunes unit
    values on mirror cells as they appear.  A partial table that one of
    ``relabelings`` already beats (:func:`_is_canonical`) is cut with its
    subtree, so only the least table of each isomorphism class is yielded
    (every table, given no relabelings).
    """
    t = [-1] * (n * n)
    for j in range(n):
        t[j] = j  # 1*x = x
    for i in range(n):
        t[i * n] = 0  # x*1 = 1
        t[i * n + i] = 0  # x*x = 1
    free = [
        i * n + j
        for i in range(1, n)
        for j in range(1, n)
        if i != j
    ]
    # each exchange constraint (x*y)*(x*z) = (y*x)*(y*z) as its cells (xy, xz, yx, yz)
    constraints = [
        (x * n + y, x * n + z, y * n + x, y * n + z)
        for x in range(1, n)
        for y in range(x + 1, n)
        for z in range(1, n)
        if z != x and z != y
    ]
    mirror = [j * n + i for i in range(n) for j in range(n)]

    def assign(pos: int, value: int, trail: list[int]) -> bool:
        t[pos] = value
        trail.append(pos)
        if value == 0 and t[mirror[pos]] == 0:  # antisymmetry: both above and below
            return False
        return True

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for xy, xz, yx, yz in constraints:
                a = t[xy]
                b = t[xz]
                c = t[yx]
                d = t[yz]
                if a < 0 or b < 0 or c < 0 or d < 0:
                    continue
                lhs = t[a * n + b]
                rhs = t[c * n + d]
                if lhs >= 0 and rhs >= 0:
                    if lhs != rhs:
                        return False
                elif lhs >= 0:
                    if not assign(c * n + d, lhs, trail):
                        return False
                    changed = True
                elif rhs >= 0:
                    if not assign(a * n + b, rhs, trail):
                        return False
                    changed = True
        return True

    def solve(k: int) -> Iterator[tuple[int, ...]]:
        while k < len(free) and t[free[k]] >= 0:
            k += 1
        if k == len(free):
            yield tuple(t)
            return
        pos = free[k]
        for value in range(n):
            trail: list[int] = []
            if assign(pos, value, trail) and propagate(trail) and _is_canonical(t, relabelings):
                yield from solve(k + 1)
            for p in trail:
                t[p] = -1

    yield from solve(0)
