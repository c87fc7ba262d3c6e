"""Ideals, the ideal lattice, congruences and quotients.

A subset I of an L-algebra is an ideal when it contains the unit and is
closed under three rules:

    (detachment)   x in I and x*y in I   =>  y in I
    (lifting)      x in I                =>  (x*y)*y in I        for all y
    (absorption)   x in I                =>  y*x in I  and  y*(x*y) in I

Ideals are upper sets and subalgebras, and they biject with congruences via
x ~ y iff x*y and y*x both lie in I.  Subsets are machine-word bitmasks
throughout; the carrier cap of 64 in :mod:`lalg.core` keeps that honest.
:func:`close_under_rules` and :func:`is_ideal` read each member x once:
``FiniteLAlgebra.closure_kernel[x]`` is everything lifting and absorption
derive from x, and x's row gives detachment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .core import FiniteLAlgebra
from .errors import DistributivityFailure, JoinWitnessMismatch, ResiduationNotGreatest


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class Ideal:
    """A validated ideal: an algebra reference plus a member bitmask."""

    algebra: FiniteLAlgebra
    members: int

    def __contains__(self, i: int) -> bool:
        return bool((self.members >> i) & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.members)

    def __len__(self) -> int:
        return self.members.bit_count()

    def issubset(self, other: "Ideal") -> bool:
        return self.members & ~other.members == 0

    def label_set(self) -> tuple[str, ...]:
        return tuple(self.algebra.label(i) for i in self)

    def __repr__(self) -> str:
        return "{" + ",".join(self.label_set()) + "}"


def is_ideal(alg: FiniteLAlgebra, mask: int) -> bool:
    """Does the subset contain the unit and satisfy all three closure rules?

    Each member x is tested once: its entry of ``closure_kernel`` must lie
    inside the subset (lifting and absorption), and no y outside it may have
    x*y inside (detachment).
    """
    if not (mask >> alg.unit) & 1:
        return False
    t = alg.table
    kernel = alg.closure_kernel
    outside = [y for y in range(alg.n) if not (mask >> y) & 1]
    for x in bits(mask):
        if kernel[x] & ~mask:
            return False
        row = t[x]
        for y in outside:
            if (mask >> row[y]) & 1:
                return False
    return True


def close_under_rules(alg: FiniteLAlgebra, seed_mask: int) -> int:
    """Least ideal mask containing the seed.

    A worklist fixpoint that reads each member once, in the pass after it
    joins: its ``closure_kernel`` entry adds what lifting and absorption
    give, and its row adds every y outside with x*y inside (detachment).
    A value v = x*y that joins after x needs no second look at x's row:
    lifting put v*y = (x*y)*y in when x joined, so v's own row adds y.  The
    rules are monotone, so this reaches the same least fixpoint as applying
    them in any order.
    """
    t = alg.table
    kernel = alg.closure_kernel
    m = new = seed_mask | 1 << alg.unit
    while new:
        add = 0
        outside = [y for y in range(alg.n) if not (m >> y) & 1]
        for x in bits(new):
            add |= kernel[x]
            row = t[x]
            for y in outside:
                if (m >> row[y]) & 1:
                    add |= 1 << y
        new = add & ~m
        m |= new
    return m


def generate_ideal(alg: FiniteLAlgebra, seed: Iterable[int] | int) -> Ideal:
    """Ideal generated by a set of element indices (or a ready-made mask)."""
    seed_mask = seed if isinstance(seed, int) else mask_of(seed)
    return Ideal(alg, close_under_rules(alg, seed_mask))


def principal_ideal(alg: FiniteLAlgebra, x: int) -> Ideal:
    return generate_ideal(alg, (x,))


def _join_irreducibles(alg: FiniteLAlgebra, principal: Iterable[int]) -> tuple[int, ...]:
    """The join-irreducible ideals, as masks in (popcount, mask) order.

    Every ideal is the join of the principal ideals of its members, so the
    join-irreducibles are principal: the non-bottom <x> that the closure of
    the principal ideals strictly inside them does not reach.  The order
    extends inclusion, so every join-irreducible below the j-th one has an
    index below j.
    """
    distinct = sorted(set(principal), key=lambda m: (m.bit_count(), m))
    out = []
    for p in distinct[1:]:
        below = 0
        for q in distinct:
            if q != p and q & ~p == 0:
                below |= q
        if below != p and close_under_rules(alg, below) != p:
            out.append(p)
    return tuple(out)


def _downsets(joinirr: Sequence[int], masks: Iterable[int]) -> list[int]:
    """For each mask, the join-irreducibles inside it, as bits over ``joinirr``."""
    return [mask_of(j for j, q in enumerate(joinirr) if q & ~m == 0) for m in masks]


def _ideal_masks(
    alg: FiniteLAlgebra, principal: tuple[int, ...], joinirr: tuple[int, ...]
) -> list[tuple[int, int]]:
    """All ideals as (mask, S_I) pairs, from the join-irreducible principal ideals ``joinirr``.

    An ideal I is {x | every join-irreducible inside <x> lies in I}, read
    off the down-set S_I of join-irreducibles inside I; that holds in any
    finite lattice.  Each down-set S of the join-irreducibles gives one
    candidate cand(S) of that form, and ``is_ideal`` keeps the candidates
    that are ideals, so nothing here presupposes the distributivity that the
    laws check.  The down-set of a leaf is S_cand(S), as bits over
    ``joinirr``: each j in S is some <x> with x in cand(S), so j lies inside
    cand(S), and a join-irreducible <x> inside cand(S) has x in cand(S) and
    so lies in S.  Distinct leaves thus give distinct masks.
    """
    k = len(joinirr)
    lower = [d ^ 1 << j for j, d in enumerate(_downsets(joinirr, joinirr))]
    need = _downsets(joinirr, principal)
    out = []
    stack = [(0, 0)]
    while stack:
        j, down = stack.pop()
        if j == k:
            cand = mask_of(x for x, nx in enumerate(need) if nx & ~down == 0)
            if is_ideal(alg, cand):
                out.append((cand, down))
            continue
        stack.append((j + 1, down))
        if lower[j] & ~down == 0:
            stack.append((j + 1, down | 1 << j))
    return out


#: What :func:`enumerate_ideals` builds for one operation table, keyed by
#: ``(alg.unit, alg.table)``: the (mask, S_I) pairs of :func:`_ideal_masks`,
#: the principal masks and the join-irreducibles.  None of it carries a label.
TableMemo = dict[
    tuple[int, tuple[tuple[int, ...], ...]],
    tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]],
]


class IdealLattice:
    """All ideals of one algebra, with meet, join and residuation tables built on first read.

    Built from the (mask, S_I) pairs of :func:`_ideal_masks`, one per ideal,
    the masks of <x> for every element x (``principal``) and the
    join-irreducible ones among them (``join_irreducibles``), as
    :func:`enumerate_ideals` hands them over.  The pairs are sorted by
    (popcount, mask), so index 0 is the bottom {1} and the last index is the
    full carrier, and ``downsets[k]`` is the set S_I of
    ``join_irreducibles`` inside the k-th ideal, as bits.

    ``by_downset``, the one index from down-set to ideal, ``meet_table``,
    ``join_table`` and ``residuation_table`` (m x m) and the :class:`Ideal`
    objects in ``ideals`` are built when first read, so the lattices that
    serve only masks and spectra never build a table; :meth:`quotient_by`
    builds X/I once per ideal.  I n J is the intersection, I v J
    (:meth:`join`) the ideal with down-set S_I u S_J, and I*J the set
    {x | <x> n I <= J}; each is looked up.  A hit is the meet, the join or
    the greatest K with K n I <= J; a join that misses raises
    :class:`DistributivityFailure` (only a non-distributive lattice lacks
    it), a residual :class:`ResiduationNotGreatest`.  The theorems are
    checked in the laws ``ideal-lattice.distributive``, ``join.witness-form``
    and ``residuation.adjunction``.

    A lattice built through a :data:`TableMemo` keeps it (``memo``), and
    the lattices of its quotients are built through the same one.

    Construction does not check the family.  A hand-built family in which
    two members share a down-set is accepted, and ``by_downset`` then keeps
    the last of them; the injectivity check of :func:`certify_distributive`,
    run by ``ideal-lattice.distributive``, names both.
    """

    def __init__(
        self,
        algebra: FiniteLAlgebra,
        pairs: Iterable[tuple[int, int]],
        principal: Iterable[int],
        join_irreducibles: Iterable[int],
        memo: TableMemo | None = None,
    ):
        self.algebra = algebra
        self.memo = memo
        pairs = sorted(pairs, key=lambda pair: (pair[0].bit_count(), pair[0]))
        self.masks: tuple[int, ...] = tuple(mask for mask, _ in pairs)
        self.downsets: tuple[int, ...] = tuple(down for _, down in pairs)
        self._index: dict[int, int] = {m: k for k, m in enumerate(self.masks)}
        self.bottom = 0
        self.top = len(self.masks) - 1
        self.principal: tuple[int, ...] = tuple(self._index[p] for p in principal)
        assert self.principal[algebra.unit] == self.bottom
        assert self.masks[self.top] == algebra.full_mask
        self.join_irreducibles = tuple(join_irreducibles)
        self._quotients: dict[int, Quotient] = {}

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def ideals(self) -> tuple[Ideal, ...]:
        return tuple(Ideal(self.algebra, m) for m in self.masks)

    def __iter__(self) -> Iterator[Ideal]:
        return iter(self.ideals)

    def index(self, mask: int) -> int:
        return self._index[mask]

    def leq(self, i: int, j: int) -> bool:
        return self.masks[i] & ~self.masks[j] == 0

    def proper_indices(self) -> Iterator[int]:
        return (k for k in range(len(self.masks)) if k != self.top)

    def quotient_by(self, k: int) -> Quotient:
        """X/I for the k-th ideal I, built once per ideal through :func:`quotient`."""
        quot = self._quotients.get(k)
        if quot is None:
            quot = self._quotients[k] = Quotient(
                self.algebra, *quotient(self.algebra, self.ideals[k]), memo=self.memo
            )
        return quot

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.masks)
        table = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                inter = self.masks[i] & self.masks[j]
                k = self._index.get(inter)
                assert k is not None, "ideal family not closed under intersection"
                table[i][j] = table[j][i] = k
        return tuple(tuple(r) for r in table)

    @cached_property
    def by_downset(self) -> dict[int, int]:
        return {d: k for k, d in enumerate(self.downsets)}

    def join(self, i: int, j: int) -> int:
        """Index of I v J: the ideal whose down-set is S_I u S_J."""
        k = self.by_downset.get(self.downsets[i] | self.downsets[j])
        if k is None:
            raise DistributivityFailure(
                f"{self.algebra.name}: no ideal has S_I u S_J as its down-set",
                witness={
                    "algebra": self.algebra.name,
                    "I": _labels(self.algebra, self.masks[i]),
                    "J": _labels(self.algebra, self.masks[j]),
                },
            )
        return k

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.masks)
        table = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                table[i][j] = table[j][i] = self.join(i, j)
        return tuple(tuple(r) for r in table)

    def _residuation_mask(self, imask: int, jmask: int) -> int:
        """Element-wise I*J = {x | <x> n I <= J}."""
        outside = imask & ~jmask
        out = 0
        for x, p in enumerate(self.principal):
            if self.masks[p] & outside == 0:
                out |= 1 << x
        return out

    @cached_property
    def residuation_table(self) -> tuple[tuple[int, ...], ...]:
        # I*J depends on I \ J only: one scan per distinct difference
        by_outside: dict[int, int] = {}
        table = []
        for imask in self.masks:
            row = []
            for jmask in self.masks:
                outside = imask & ~jmask
                r = by_outside.get(outside)
                if r is None:
                    r = by_outside[outside] = self._residuation_mask(imask, jmask)
                k = self._index.get(r)
                if k is None:
                    raise ResiduationNotGreatest(
                        f"{self.algebra.name}: element-wise residuation is not an ideal",
                        witness={
                            "algebra": self.algebra.name,
                            "I": _labels(self.algebra, imask),
                            "J": _labels(self.algebra, jmask),
                            "elementwise": _labels(self.algebra, r),
                        },
                    )
                row.append(k)
            table.append(tuple(row))
        return tuple(table)


def certify_distributive(
    masks: Sequence[int],
    join_irreducibles: Sequence[int],
    downsets: Sequence[int],
    join: Callable[[int], int],
    name: str,
    label: Callable[[int], object],
) -> int:
    """Certify that I -> S_I embeds the lattice into the sets of join-irreducibles.

    ``downsets[k]`` is S_I for ``masks[k]`` (as bits over
    ``join_irreducibles``), ``join`` takes a union of members to their join,
    and ``label`` names a member in a witness.  The map preserves meets by
    definition; it preserves joins when every join-irreducible j is
    join-prime, which holds exactly when j lies outside the join of all
    members that do not contain it.  An injective
    map that preserves both is an embedding into a lattice of sets, so the
    lattice is distributive (Birkhoff; Davey & Priestley, ch. 5), and every
    member is the join of the join-irreducibles inside it.  Raises
    :class:`DistributivityFailure` naming two members with one down-set or
    a join-irreducible that is not join-prime; returns the number of checks,
    one per member and one join per join-irreducible.
    """
    first: dict[int, int] = {}
    for k, down in enumerate(downsets):
        other = first.setdefault(down, k)
        if other != k:
            raise DistributivityFailure(
                f"{name}: two ideals have the same down-set of join-irreducibles",
                witness={"I": label(masks[other]), "J": label(masks[k])},
            )
    for b, jmask in enumerate(join_irreducibles):
        rest = 0
        for mask, down in zip(masks, downsets):
            if not (down >> b) & 1:
                rest |= mask
        joined = join(rest)
        if jmask & ~joined == 0:
            raise DistributivityFailure(
                f"{name}: a join-irreducible ideal is not join-prime",
                witness={"join_irreducible": label(jmask), "join_of_the_rest": label(joined)},
            )
    return len(masks) + len(join_irreducibles)


def _labels(alg: FiniteLAlgebra, mask: int) -> list[str]:
    return [alg.label(i) for i in bits(mask)]


def enumerate_ideals(alg: FiniteLAlgebra, memo: TableMemo | None = None) -> IdealLattice:
    """Materialize the full ideal lattice.

    The n principal ideals are closed and the join-irreducible ones found
    once; the ideals are read off the down-sets of the join-irreducibles
    (see :func:`_ideal_masks`), and the lattice takes each mask with its
    down-set.

    With a ``memo``, an operation table whose ideals it already holds is not
    enumerated again: the lattice is built from the stored pairs, principal
    masks and join-irreducibles, bound to ``alg``, so its ideals carry
    ``alg``'s names and labels.  The lattice keeps the memo for the lattices
    of its quotients.  A law run holds one memo for its length (see
    :func:`lalg.laws.run_suite`); without one, every call enumerates.
    """
    key = (alg.unit, alg.table)
    built = None if memo is None else memo.get(key)
    if built is None:
        principal = tuple(close_under_rules(alg, 1 << x) for x in range(alg.n))
        joinirr = _join_irreducibles(alg, principal)
        built = (tuple(_ideal_masks(alg, principal, joinirr)), principal, joinirr)
        if memo is not None:
            memo[key] = built
    return IdealLattice(alg, *built, memo=memo)


def witness_joins(lattice: IdealLattice, pairs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Yield the witness join of each (i, j) pair of lattice indices, certified.

    y is in the witness join w of I and J when some x in I has x*y and y*x
    in J, so w is the union of one precomputed mask per member of I.  By
    detachment w lies inside every ideal that holds I u J; so w is the
    closure of I u J exactly when it holds I u J and is an ideal.  Each pair
    checks that and that w is the entry of ``join_table``, with ``is_ideal``
    run once per entry; a miss computes the closure and raises
    :class:`JoinWitnessMismatch` with all three.
    """
    alg = lattice.algebra
    t = alg.table
    masks = lattice.masks
    by_right: dict[int, list[int]] = {}
    entry_is_ideal: dict[int, bool] = {}
    for i, j in pairs:
        imask, jmask = masks[i], masks[j]
        if j not in by_right:
            by_right[j] = [
                mask_of(y for y, xy in enumerate(row) if (jmask >> xy) & 1 and (jmask >> t[y][x]) & 1)
                for x, row in enumerate(t)
            ]
        wit = by_right[j]
        w = 0
        for x in bits(imask):
            w |= wit[x]
        k = lattice.join_table[i][j]
        if k not in entry_is_ideal:
            entry_is_ideal[k] = is_ideal(alg, masks[k])
        union = imask | jmask
        if not (w == masks[k] and union & ~w == 0 and entry_is_ideal[k]):
            raise JoinWitnessMismatch(
                f"{alg.name}: witness join, closure join and join table disagree",
                witness={
                    "algebra": alg.name,
                    "left": _labels(alg, imask),
                    "right": _labels(alg, jmask),
                    "closure_join": _labels(alg, close_under_rules(alg, union)),
                    "witness_join": _labels(alg, w),
                    "table_join": _labels(alg, masks[k]),
                },
            )
        yield w


@dataclass(frozen=True)
class Congruence:
    """Partition of the carrier induced by an ideal.

    ``classes`` are bitmasks ordered by least member; ``class_of[x]`` is the
    position of x's class in that order.
    """

    algebra: FiniteLAlgebra
    class_of: tuple[int, ...]
    classes: tuple[int, ...]

    def unit_class(self) -> int:
        return self.classes[self.class_of[self.algebra.unit]]


def congruence_of(alg: FiniteLAlgebra, ideal: Ideal) -> Congruence:
    """The partition of x ~ y iff x*y and y*x lie in the ideal.

    Each element's class is the set of elements related to it.  Nothing is
    checked here: that the relation is an equivalence and compatible with
    the operation, and that the class of the unit is the ideal, are theorems
    that the law ``congruence.bijection`` checks for every ideal.
    """
    n = alg.n
    t = alg.table
    imask = ideal.members
    related = [0] * n
    for x in range(n):
        for y in range(n):
            if (imask >> t[x][y]) & 1 and (imask >> t[y][x]) & 1:
                related[x] |= 1 << y
    class_masks = sorted({related[x] for x in range(n)}, key=lambda m: (m & -m))
    class_index = {m: k for k, m in enumerate(class_masks)}
    class_of = tuple(class_index[related[x]] for x in range(n))
    return Congruence(algebra=alg, class_of=class_of, classes=tuple(class_masks))


def ideal_of_congruence(cong: Congruence) -> Ideal:
    return Ideal(cong.algebra, cong.unit_class())


def quotient(
    alg: FiniteLAlgebra, ideal: Ideal
) -> tuple[FiniteLAlgebra, tuple[int, ...]]:
    """The quotient algebra and the projection map (element -> class index).

    Class representatives are least member indices and quotient elements
    follow representative order, so serialized output is reproducible.  The
    table is read off the representatives and is not validated: that it
    does not depend on them and satisfies the axioms is checked by the law
    ``quotient.morphism``.
    """
    cong = congruence_of(alg, ideal)
    reps = [(m & -m).bit_length() - 1 for m in cong.classes]
    table = tuple(
        tuple(cong.class_of[alg.table[a][b]] for b in reps) for a in reps
    )
    member_labels = ",".join(alg.label(i) for i in bits(ideal.members))
    quot = FiniteLAlgebra(
        name=f"{alg.name}/{{{member_labels}}}",
        labels=tuple(alg.label(r) for r in reps),
        unit=cong.class_of[alg.unit],
        table=table,
    )
    return quot, cong.class_of


@dataclass(frozen=True)
class Quotient:
    """X/I with its projection; the ideal lattice of X/I is built on first read.

    ``projection`` is the class map of :func:`congruence_of`, as
    :func:`quotient` returns it, so ``congruence`` is that partition again.
    One object per ideal lets every law that reads X/I share one build, and
    ``memo``, the source lattice's, lets quotients with one table share one
    enumeration.
    """

    source: FiniteLAlgebra
    algebra: FiniteLAlgebra
    projection: tuple[int, ...]
    memo: TableMemo | None = field(default=None, compare=False, repr=False)

    @cached_property
    def lattice(self) -> IdealLattice:
        return enumerate_ideals(self.algebra, self.memo)

    @cached_property
    def congruence(self) -> Congruence:
        classes = [0] * self.algebra.n
        for x, c in enumerate(self.projection):
            classes[c] |= 1 << x
        return Congruence(self.source, self.projection, tuple(classes))
