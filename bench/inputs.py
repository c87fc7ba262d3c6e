"""Input algebras for the ladder and query workloads, built without lalg.

Every table is made here from its definition, so the closed forms that the
checks compare against (ideal and point counts) do not lean on the code
under test:

* ``anti(k)``: the implication algebra of an antichain of k atoms under a
  top, x*y = 1 when x <= y and y otherwise.  n = k+1, 2^k ideals, k points.
* ``power(base, k)``: the k-fold direct product of ``B2`` or ``chain3``,
  computed componentwise.  Ideals multiply and points add, so B2^k has 2^k
  ideals and k points, chain3^k has 3^k ideals and 2k points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian


@dataclass(frozen=True)
class Table:
    """A raw operation table: ``table[i][j]`` is the index of e_i * e_j."""

    name: str
    labels: tuple[str, ...]
    unit: int
    table: tuple[tuple[int, ...], ...]
    ideals: int  # closed-form ideal count
    points: int  # closed-form prime-ideal count

    @property
    def n(self) -> int:
        return len(self.labels)


def poset_table(name: str, labels, leq, top: int, ideals: int, points: int) -> Table:
    """Implication algebra of a poset: x*y = top when x <= y, else y."""
    n = len(labels)
    rows = tuple(tuple(top if leq(i, j) else j for j in range(n)) for i in range(n))
    return Table(name, tuple(labels), top, rows, ideals, points)


def anti(k: int) -> Table:
    labels = ["1"] + [f"a{i}" for i in range(k)]
    return poset_table(f"anti{k}", labels, lambda i, j: i == j or j == 0, 0, 2**k, k)


def chain3() -> Table:
    # 1 > a > b, the top at index 0
    return poset_table("chain3", ["1", "a", "b"], lambda i, j: i >= j, 0, 3, 2)


def b2() -> Table:
    # the two-element algebra: 0*0 = 0*1 = 1, 1*0 = 0
    return poset_table("B2", ["1", "0"], lambda i, j: i == j or j == 0, 0, 2, 1)


def direct_product(name: str, factors: list[Table]) -> Table:
    """Componentwise product; element labels join the factor labels with '.'."""
    shapes = [range(f.n) for f in factors]
    elems = list(cartesian(*shapes))
    index = {e: i for i, e in enumerate(elems)}
    labels = tuple(".".join(f.labels[c] for f, c in zip(factors, e)) for e in elems)
    rows = tuple(
        tuple(index[tuple(f.table[a][b] for f, a, b in zip(factors, x, y))] for y in elems)
        for x in elems
    )
    unit = index[tuple(f.unit for f in factors)]
    ideals = 1
    points = 0
    for f in factors:
        ideals *= f.ideals
        points += f.points
    return Table(name, labels, unit, rows, ideals, points)


def power(base: Table, k: int) -> Table:
    return direct_product(f"{base.name}^{k}", [base] * k)


def to_text(tab: Table) -> str:
    """The ``.lalg`` line format that ``lalg`` reads."""
    lines = [f"name: {tab.name}", f"elements: {' '.join(tab.labels)}", f"unit: {tab.labels[tab.unit]}"]
    for label, row in zip(tab.labels, tab.table):
        lines.append(f"row {label}: {' '.join(tab.labels[v] for v in row)}")
    return "\n".join(lines) + "\n"
