"""Finite L-algebras: validation, derived order, partial products, structure flags.

An L-algebra is a set with a binary operation ``x * y`` and a logical unit 1
such that

    x*x = x*1 = 1,   1*x = x                      (unit laws)
    (x*y)*(x*z) = (y*x)*(y*z)                     (exchange)
    x*y = 1 and y*x = 1  imply  x = y             (antisymmetry)

The operation models implication; ``x <= y  iff  x*y = 1`` is then a partial
order with top 1.  Everything here works on dense integer indices into an
immutable operation table; labels are I/O-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import (
    AxiomViolation,
    MalformedTable,
    NonUniqueProduct,
    SizeTooLarge,
    Violation,
)

#: Largest supported carrier; subsets of the carrier fit one machine word.
MAX_CARRIER = 64


@dataclass(frozen=True)
class FiniteLAlgebra:
    """A finite L-algebra.

    ``table[i][j]`` is the index of ``e_i * e_j``; ``unit`` is the index of
    the logical unit.  Instances are immutable and safe to share; a table
    from outside goes through :func:`validate`, while builders and witness
    replay construct one directly.
    """

    name: str
    labels: tuple[str, ...]
    unit: int
    table: tuple[tuple[int, ...], ...]

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def leq(self, i: int, j: int) -> bool:
        return self.table[i][j] == self.unit

    def label(self, i: int) -> str:
        return self.labels[i]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"{self.name}: no element labelled {label!r}") from None

    @cached_property
    def order(self) -> "OrderRelation":
        return derive_order(self)

    @cached_property
    def closure_kernel(self) -> tuple[int, ...]:
        """Entry x is the mask of (x*y)*y, y*x and y*(x*y) over all y: what
        lifting and absorption add to an ideal that holds x."""
        t = self.table
        out = []
        for x, row in enumerate(t):
            k = 0
            for y, xy in enumerate(row):
                k |= 1 << t[xy][y] | 1 << t[y][x] | 1 << t[y][xy]
            out.append(k)
        return tuple(out)

    def __repr__(self) -> str:  # table omitted on purpose; can be large
        return f"FiniteLAlgebra({self.name!r}, n={self.n})"


@dataclass(frozen=True)
class OrderRelation:
    """The partial order x <= y iff x*y = 1, as bitmask rows.

    ``above[i]`` is the mask of all j with i <= j (the upper set of i),
    ``below[j]`` the mask of all i with i <= j (the downset of j).
    """

    unit: int
    above: tuple[int, ...]
    below: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.above)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)

    def is_maximal(self, x: int) -> bool:
        """True when nothing except the unit lies strictly above x."""
        strictly_above = self.above[x] & ~(1 << x)
        return strictly_above == (1 << self.unit) or (x == self.unit and strictly_above == 0)


@dataclass(frozen=True)
class StructureFlags:
    """Structural predicates of one algebra.

    ``meets[a][b]`` is the product-form meet of a and b: (a*b)a and (b*a)b
    when both exist, agree and are a greatest lower bound, else None.
    ``diagnostics`` records pairs where both candidates exist but disagree,
    or agree without being a greatest lower bound; the meet is then reported
    undefined rather than raising, because the symmetric meet identity is
    only guaranteed inside self-similar algebras.
    """

    sharp: bool
    discrete: bool
    brouwerian: bool
    meet_closed: bool
    self_similar: bool
    meets: tuple[tuple[int | None, ...], ...] = field(repr=False)
    diagnostics: tuple[str, ...] = ()


def axiom_violations(
    table: Sequence[Sequence[int]], unit: int, columns: Sequence[int] | None = None
) -> list[Violation]:
    """Return the complete list of axiom violations of a square table.

    Entries must already be in-range (use :func:`validate` for shape checks).
    ``columns`` restricts the exchange identity to z in ``columns``; the unit
    laws and antisymmetry are checked on the whole table.
    """
    n = len(table)
    zs = range(n) if columns is None else columns
    out: list[Violation] = []
    for i in range(n):
        if table[i][i] != unit:
            out.append(Violation("unit", (i,), f"x*x != 1 at x={i}"))
        if table[i][unit] != unit:
            out.append(Violation("unit", (i,), f"x*1 != 1 at x={i}"))
        if table[unit][i] != i:
            out.append(Violation("unit", (i,), f"1*x != x at x={i}"))
    # compose[x](row) is (row[x*z] for every z in zs): each side of the
    # exchange identity for one (x, y) as a whole row over z, built in C.
    # (y, x) states the identity of (x, y) with its sides swapped, so each
    # unordered pair is compared once, and z is walked, for both orders,
    # only where the two rows differ
    compose = [itemgetter(*[row[z] for z in zs]) for row in table]
    differ = []
    for x in range(n):
        row_x = table[x]
        for y in range(x + 1, n):
            row_y = table[y]
            if compose[x](table[row_x[y]]) != compose[y](table[row_y[x]]):
                differ += [(x, y), (y, x)]
    for x, y in sorted(differ):
        row_x, row_y = table[x], table[y]
        left = table[row_x[y]]
        right = table[row_y[x]]
        for z in zs:
            if left[row_x[z]] != right[row_y[z]]:
                out.append(
                    Violation(
                        "exchange",
                        (x, y, z),
                        f"(x*y)*(x*z) != (y*x)*(y*z) at (x,y,z)=({x},{y},{z})",
                    )
                )
    for x in range(n):
        for y in range(x + 1, n):
            if table[x][y] == unit and table[y][x] == unit:
                out.append(
                    Violation(
                        "antisymmetry",
                        (x, y),
                        f"x*y = y*x = 1 for distinct x={x}, y={y}",
                    )
                )
    return out


def _check_shape(
    table: Sequence[Sequence[int]], unit: int, labels: Sequence[str] | None
) -> None:
    n = len(table)
    if n == 0:
        raise MalformedTable("empty table")
    if n > MAX_CARRIER:
        raise SizeTooLarge(f"carrier size {n} exceeds the cap of {MAX_CARRIER}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedTable(f"table not square: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < n):
                raise MalformedTable(f"entry ({i},{j}) = {v!r} is not an index in 0..{n - 1}")
    if not (0 <= unit < n):
        raise MalformedTable(f"unit index {unit} out of range 0..{n - 1}")
    if labels is not None:
        if len(labels) != n:
            raise MalformedTable(f"{len(labels)} labels for {n} elements")
        if len(set(labels)) != n:
            raise MalformedTable("element labels are not pairwise distinct")


def validate(
    table: Sequence[Sequence[int]],
    unit: int,
    labels: Sequence[str] | None = None,
    name: str = "X",
) -> FiniteLAlgebra:
    """Validate a raw table and return the algebra, or raise with all violations.

    Raises :class:`SizeTooLarge` above ``MAX_CARRIER`` elements, else
    :class:`MalformedTable` for a bad shape and :class:`AxiomViolation` with
    every violated axiom instance.  Nothing beyond the axioms is checked
    here; that partial products are unique is the law ``product.uniqueness``.
    """
    _check_shape(table, unit, labels)
    violations = axiom_violations(table, unit)
    if violations:
        raise AxiomViolation(violations)
    if labels is None:
        labels = tuple(str(i) for i in range(len(table)))
    return FiniteLAlgebra(
        name=name,
        labels=tuple(labels),
        unit=unit,
        table=tuple(tuple(row) for row in table),
    )


def derive_order(alg: FiniteLAlgebra) -> OrderRelation:
    """Read the relation x*y = 1 off the table as bitmask rows.

    Nothing is checked here: the law ``order.partial-order`` checks that the
    relation is a partial order with top 1.
    """
    n = alg.n
    t = alg.table
    unit = alg.unit
    above = [0] * n
    below = [0] * n
    for i in range(n):
        for j in range(n):
            if t[i][j] == unit:
                above[i] |= 1 << j
                below[j] |= 1 << i
    return OrderRelation(unit=unit, above=tuple(above), below=tuple(below))


def partial_product(alg: FiniteLAlgebra, x: int, y: int) -> int | None:
    """The unique z with y*z = x and z <= y, or None when no such z exists.

    Uniqueness is a theorem; two witnesses raise :class:`NonUniqueProduct`
    rather than silently picking one.
    """
    t = alg.table
    unit = alg.unit
    found: int | None = None
    for z in range(alg.n):
        if t[z][y] == unit and t[y][z] == x:
            if found is not None:
                raise NonUniqueProduct(
                    f"{alg.name}: product ({alg.label(x)}, {alg.label(y)}) has two witnesses",
                    witness={
                        "algebra": alg.name,
                        "x": alg.label(x),
                        "y": alg.label(y),
                        "witnesses": [alg.label(found), alg.label(z)],
                    },
                )
            found = z
    return found


def _is_glb(alg: FiniteLAlgebra, z: int, a: int, b: int) -> bool:
    order = alg.order
    if not (order.leq(z, a) and order.leq(z, b)):
        return False
    common = order.below[a] & order.below[b]
    return common & ~order.below[z] == 0


def structure_flags(alg: FiniteLAlgebra) -> StructureFlags:
    """Compute the structural predicates of a validated algebra."""
    n = alg.n
    t = alg.table
    unit = alg.unit
    order = alg.order

    sharp = all(t[x][t[x][y]] == t[x][y] for x in range(n) for y in range(n))
    discrete = all(x == unit or order.is_maximal(x) for x in range(n))

    # each product (a*b)a once: the meets and the diagnostics both read it
    cand = [[partial_product(alg, t[a][b], a) for b in range(n)] for a in range(n)]
    meets: list[list[int | None]] = [[None] * n for _ in range(n)]
    notes: list[str] = []
    for a in range(n):
        for b in range(a, n):
            za, zb = cand[a][b], cand[b][a]
            if za is None or zb is None:
                continue
            la, lb = alg.label(a), alg.label(b)
            if za != zb:
                notes.append(
                    f"({la}*{lb}){la} = {alg.label(za)} but ({lb}*{la}){lb} = {alg.label(zb)}"
                )
            elif _is_glb(alg, za, a, b):
                meets[a][b] = meets[b][a] = za
            elif a < b:
                notes.append(
                    f"({la}*{lb}){la} = {alg.label(za)} is not a greatest lower bound"
                )
    meet_closed = all(v is not None for row in meets for v in row)

    brouwerian = meet_closed
    if meet_closed:
        for x in range(n):
            for y in range(n):
                m = meets[x][y]
                assert m is not None
                for z in range(n):
                    if order.leq(m, z) != order.leq(x, t[y][z]):
                        brouwerian = False
                        break
                if not brouwerian:
                    break
            if not brouwerian:
                break

    self_similar = True
    for y in range(n):
        image = {t[y][z] for z in range(n) if order.leq(z, y)}
        if len(image) != n:
            self_similar = False
            break

    return StructureFlags(
        sharp=sharp,
        discrete=discrete,
        brouwerian=brouwerian,
        meet_closed=meet_closed,
        self_similar=self_similar,
        meets=tuple(map(tuple, meets)),
        diagnostics=tuple(notes),
    )


def subalgebra(alg: FiniteLAlgebra, member_mask: int) -> tuple[FiniteLAlgebra, tuple[int, ...]]:
    """Restrict to a subset closed under the operation (e.g. an ideal).

    Returns the restricted algebra plus the tuple mapping new indices to old.
    Raises ValueError when the subset is not operation-closed or misses the
    unit.  The axioms are not checked again: they are universal sentences,
    so an operation-closed subset of an L-algebra satisfies them, and the law
    ``ideal.upper-subalgebra`` checks that every ideal is closed.
    """
    elems = [i for i in range(alg.n) if (member_mask >> i) & 1]
    if alg.unit not in elems:
        raise ValueError(f"{alg.name}: subset does not contain the unit")
    old_to_new = {old: new for new, old in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            v = alg.table[a][b]
            if v not in old_to_new:
                raise ValueError(
                    f"{alg.name}: subset not closed under the operation "
                    f"({alg.label(a)}*{alg.label(b)} = {alg.label(v)} escapes)"
                )
            row.append(old_to_new[v])
        table.append(tuple(row))
    sub = FiniteLAlgebra(
        name=f"{alg.name}|{{{','.join(alg.labels[i] for i in elems)}}}",
        labels=tuple(alg.labels[i] for i in elems),
        unit=old_to_new[alg.unit],
        table=tuple(table),
    )
    return sub, tuple(elems)
