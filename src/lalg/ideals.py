"""Ideals, the ideal lattice, congruences and quotients.

A subset I of an L-algebra is an ideal when it contains the unit and is
closed under three rules:

    (detachment)   x in I and x*y in I   =>  y in I
    (lifting)      x in I                =>  (x*y)*y in I        for all y
    (absorption)   x in I                =>  y*x in I  and  y*(x*y) in I

Ideals are upper sets and subalgebras, and they biject with congruences via
x ~ y iff x*y and y*x both lie in I.  A subset of the carrier (an ideal, a
prime, a class) is a machine-word bitmask and nothing else; the carrier cap
of 64 in :mod:`lalg.core` keeps that honest, and :func:`labels_of` and
:func:`braced` name one for output.
:func:`close_under_rules` and :func:`is_ideal` read each member x once:
``FiniteLAlgebra.closure_kernel[x]`` is everything lifting and absorption
derive from x, and x's row gives detachment.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def labels_of(alg: FiniteLAlgebra, mask: int) -> tuple[str, ...]:
    """The labels of the members of a subset, ascending by index."""
    return tuple(alg.labels[i] for i in bits(mask))


def braced(alg: FiniteLAlgebra, mask: int) -> str:
    """A subset as output prints it: ``{a,b}``."""
    return "{" + ",".join(labels_of(alg, mask)) + "}"


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


def _point_candidates(principal: Sequence[int], joinirr: Sequence[int]) -> list[int]:
    """P_j = {x | j not inside <x>}, ungated, for each join-irreducible j in order."""
    return [mask_of(x for x, p in enumerate(principal) if q & ~p) for q in joinirr]


def _ideal_masks(
    alg: FiniteLAlgebra, principal: tuple[int, ...], joinirr: tuple[int, ...]
) -> list[tuple[int, int]]:
    """All ideals as (mask, S_I) pairs, from the join-irreducible principal ideals ``joinirr``.

    An ideal I is cand(S_I) = {x | every join-irreducible inside <x> lies
    in S_I}; that holds in any finite lattice.  The walk decides one
    join-irreducible j at a time, adding j to a down-set S when all below it
    are in S, and carries cand(S) as the AND of the P_j of
    :func:`_point_candidates` over the j left out, one AND per node.  Ideals
    are closed under intersection (the rules are Horn clauses), so once
    ``is_ideal`` accepts the k P_j every leaf is an ideal; a failed P_j,
    which only a table that is no L-algebra can cause, makes ``is_ideal``
    gate each leaf.  Nothing here presupposes distributivity.  The down-set
    of a leaf is S_cand(S): each j in S is some <x> with x in cand(S), and
    a join-irreducible <x> inside cand(S) lies in S, so distinct leaves give
    distinct masks.
    """
    points = _point_candidates(principal, joinirr)
    certified = all(is_ideal(alg, p) for p in points)
    level = [(0, alg.full_mask)]  # (S, cand(S)) over the first j join-irreducibles
    for j, below in enumerate(_downsets(joinirr, joinirr)):
        bit, pj = 1 << j, points[j]
        level = [(d, c & pj) for d, c in level] + [(d | bit, c) for d, c in level if below & ~d == bit]
    return [(c, d) for d, c in level if certified or is_ideal(alg, c)]


def point_masks(
    alg: FiniteLAlgebra, principal: Sequence[int], joinirr: Sequence[int]
) -> tuple[int, ...]:
    """The prime ideals, one per join-irreducible ideal, in the order of ``joinirr``.

    In a finite distributive lattice the primes are exactly the P_j, one for
    each join-irreducible j: cand(S_j), S_j the join-irreducibles not above
    j, which is {x | j not inside <x>} (Birkhoff; Davey & Priestley, ch. 5
    and 10), read off the principal masks by :func:`_point_candidates`
    without a lattice.  ``is_ideal`` gates each, and one that is no ideal
    raises :class:`DistributivityFailure` naming j; they are the k masks
    that certify the walk of :func:`_ideal_masks`.  The law
    ``prime.definitions-agree`` checks that these are the primes.
    """
    out = _point_candidates(principal, joinirr)
    for jmask, cand in zip(joinirr, out):
        if not is_ideal(alg, cand):
            raise DistributivityFailure(
                f"{alg.name}: no ideal has the join-irreducibles not above j as its down-set",
                witness={
                    "algebra": alg.name,
                    "join_irreducible": labels_of(alg, jmask),
                },
            )
    return tuple(out)


class IdealLattice:
    """All ideals of one algebra, as masks, with joins and residuals looked up.

    Built from the (mask, S_I) pairs of :func:`_ideal_masks`, one per ideal,
    the masks of <x> for every element x (``principal``) and the
    join-irreducible ones among them (``join_irreducibles``), as
    :func:`enumerate_ideals` hands them over.  The pairs are sorted by
    (popcount, mask), so index 0 is the bottom {1} and the last index is the
    full carrier, and ``downsets[k]`` is the set S_I of
    ``join_irreducibles`` inside the k-th ideal, as bits.

    I n J is the intersection of two masks (``index(a & b)``), I v J
    (:meth:`join`) the ideal with down-set S_I u S_J, looked up in
    ``by_downset``, and I*J the set {x | <x> n I <= J}.  A hit is the meet,
    the join or the greatest K with K n I <= J; a join that misses raises
    :class:`DistributivityFailure` (only a non-distributive lattice lacks
    it), a residual :class:`ResiduationNotGreatest`.  ``by_downset`` is
    built when first read; :meth:`residual` gives one residual and
    :meth:`residuals` one per distinct I \\ J, in a dict the caller holds,
    so no m x m structure lives on a lattice; :meth:`quotient_by`
    builds X/I once per ideal, as an algebra with its congruence and no
    lattice.  The theorems are checked in the laws
    ``ideal-lattice.distributive``, ``join.witness-form`` and
    ``residuation.adjunction``.

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
    ):
        self.algebra = algebra
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

    def index(self, mask: int) -> int:
        return self._index[mask]

    def leq(self, i: int, j: int) -> bool:
        return self.masks[i] & ~self.masks[j] == 0

    def proper_indices(self) -> Iterator[int]:
        return (k for k in range(len(self.masks)) if k != self.top)

    def quotient_by(self, k: int) -> Quotient:
        """X/I for the k-th ideal I, built once."""
        quot = self._quotients.get(k)
        if quot is None:
            quot = self._quotients[k] = quotient(self.algebra, self.masks[k])
        return quot

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
                    "I": labels_of(self.algebra, self.masks[i]),
                    "J": labels_of(self.algebra, self.masks[j]),
                },
            )
        return k

    @cached_property
    def lower_neighbours(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(k, rest) for each ideal I: k indexes I', whose down-set is S_I
        without its highest join-irreducible, and rest is I \\ I'; k is -1
        and rest all of I where no such I' lies inside I at a lower index.
        A union over I is the union over I' and rest: :func:`witness_joins`
        and :func:`lalg.spectrum.compact_basis_failure` walk up along it."""
        masks, by_downset = self.masks, self.by_downset
        out = []
        for i, (imask, down) in enumerate(zip(masks, self.downsets)):
            k = by_downset.get(down & ~(1 << down.bit_length() >> 1), i)
            if k < i and masks[k] & ~imask == 0:
                out.append((k, tuple(bits(imask & ~masks[k]))))
            else:
                out.append((-1, tuple(bits(imask))))
        return tuple(out)

    @cached_property
    def _up(self) -> list[int]:
        """up[e] = {x | e in <x>}, for every element e."""
        up = [0] * self.algebra.n
        for x, p in enumerate(self.principal):
            for e in bits(self.masks[p]):
                up[e] |= 1 << x
        return up

    def _residuation_mask(self, imask: int, jmask: int) -> int:
        """I*J = {x | <x> n I <= J}: the carrier minus up[e] for each e in I \\ J."""
        out = self.algebra.full_mask
        up = self._up
        for e in bits(imask & ~jmask):
            out &= ~up[e]
        return out

    def residual(self, imask: int, jmask: int) -> int:
        """Index of I*J; an element-wise residual that is not an ideal raises
        :class:`ResiduationNotGreatest` naming I and J."""
        r = self._residuation_mask(imask, jmask)
        k = self._index.get(r)
        if k is None:
            a = self.algebra
            witness = {"algebra": a.name, "I": labels_of(a, imask), "J": labels_of(a, jmask)}
            raise ResiduationNotGreatest(
                f"{a.name}: element-wise residuation is not an ideal",
                witness={**witness, "elementwise": labels_of(a, r)},
            )
        return k

    def residuals(self) -> dict[int, int]:
        """I \\ J -> the index of I*J, one :meth:`residual` per distinct
        difference (I*J depends on I \\ J only), visited in row-major order
        of (I, J), so the first that is no ideal raises naming the first such
        pair.  A fresh dict per call: the lattice keeps no m x m structure,
        and a caller reads the row of I off ``imask & ~jmask``."""
        out: dict[int, int] = {}
        complements = [~jmask for jmask in self.masks]
        for imask in self.masks:
            outside = [imask & c for c in complements]
            for j in sorted(map(outside.index, set(outside) - out.keys())):
                out[outside[j]] = self.residual(imask, self.masks[j])
        return out


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


def enumerate_ideals(alg: FiniteLAlgebra) -> IdealLattice:
    """Materialize the full ideal lattice.

    The n principal ideals are closed and the join-irreducible ones found
    once; the ideals are read off the down-sets of the join-irreducibles by
    the walk of :func:`_ideal_masks`, certified by ``is_ideal`` on its k
    points, and the lattice takes each mask with its down-set.  Every call
    enumerates; the points alone come from :func:`point_masks`, which needs
    no lattice, so the laws enumerate no quotient or sub-algebra.
    """
    principal = tuple(close_under_rules(alg, 1 << x) for x in range(alg.n))
    joinirr = _join_irreducibles(alg, principal)
    return IdealLattice(alg, _ideal_masks(alg, principal, joinirr), principal, joinirr)


def witness_joins(lattice: IdealLattice) -> Iterator[tuple[int, int, int]]:
    """Yield (i, j, w) for every pair i <= j of lattice indices, w the
    certified witness join, column by column (j, then i, ascending).

    y is in the witness join W(I, J) when some x in I has x*y and y*x in J,
    so W is the union of the J-classes of the members of I.  Each column J
    is walked up :attr:`IdealLattice.lower_neighbours`: W(I, J) is W(I', J)
    u the classes of the members of I \\ I'.  By detachment W lies inside
    every ideal that holds I u J, so W is the closure of I u J exactly when
    it holds I u J and is an ideal.  Each pair checks that and that W is
    the lattice's join (:meth:`IdealLattice.join`, read off the down-sets),
    with ``is_ideal`` run once per join; a miss computes the closure and
    raises :class:`JoinWitnessMismatch` with all three.
    """
    alg = lattice.algebra
    t = alg.table
    masks, downsets, by_downset = lattice.masks, lattice.downsets, lattice.by_downset
    lower = lattice.lower_neighbours
    entry_is_ideal: dict[int, bool] = {}
    for j, jmask in enumerate(masks):
        wit = [
            mask_of(y for y, xy in enumerate(row) if (jmask >> xy) & 1 and (jmask >> t[y][x]) & 1)
            for x, row in enumerate(t)
        ]
        dj = downsets[j]
        column: list[int] = []
        for i in range(j + 1):
            k, rest = lower[i]
            w = column[k] if k >= 0 else 0
            for x in rest:
                w |= wit[x]
            column.append(w)
            k = by_downset.get(downsets[i] | dj)
            if k is None:
                k = lattice.join(i, j)  # raises
            if k not in entry_is_ideal:
                entry_is_ideal[k] = is_ideal(alg, masks[k])
            union = masks[i] | jmask
            if not (w == masks[k] and union & ~w == 0 and entry_is_ideal[k]):
                raise JoinWitnessMismatch(
                    f"{alg.name}: witness join, closure join and lattice join disagree",
                    witness={
                        "algebra": alg.name,
                        "left": labels_of(alg, masks[i]),
                        "right": labels_of(alg, jmask),
                        "closure_join": labels_of(alg, close_under_rules(alg, union)),
                        "witness_join": labels_of(alg, w),
                        "lattice_join": labels_of(alg, masks[k]),
                    },
                )
            yield i, j, w


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


def congruence_of(alg: FiniteLAlgebra, imask: int) -> Congruence:
    """The partition of x ~ y iff x*y and y*x lie in the ideal ``imask``.

    Each element's class is the set of elements related to it.  Nothing is
    checked here: that the relation is an equivalence and compatible with
    the operation, and that the class of the unit is the ideal, are theorems
    that the law ``congruence.bijection`` checks for every ideal.
    """
    n = alg.n
    t = alg.table
    related = [0] * n
    for x in range(n):
        for y in range(n):
            if (imask >> t[x][y]) & 1 and (imask >> t[y][x]) & 1:
                related[x] |= 1 << y
    class_masks = sorted({related[x] for x in range(n)}, key=lambda m: (m & -m))
    class_index = {m: k for k, m in enumerate(class_masks)}
    class_of = tuple(class_index[related[x]] for x in range(n))
    return Congruence(algebra=alg, class_of=class_of, classes=tuple(class_masks))


def quotient(alg: FiniteLAlgebra, imask: int) -> Quotient:
    """X/I for the ideal ``imask``, with the congruence it is read off.

    Class representatives are least member indices and quotient elements
    follow representative order, so serialized output is reproducible.  The
    table is read off the representatives and is not validated: that it
    does not depend on them and satisfies the axioms is checked by the law
    ``quotient.morphism``.
    """
    cong = congruence_of(alg, imask)
    reps = [(m & -m).bit_length() - 1 for m in cong.classes]
    table = tuple(
        tuple(cong.class_of[alg.table[a][b]] for b in reps) for a in reps
    )
    quot = FiniteLAlgebra(
        name=f"{alg.name}/{braced(alg, imask)}",
        labels=tuple(alg.label(r) for r in reps),
        unit=cong.class_of[alg.unit],
        table=table,
    )
    return Quotient(quot, cong)


@dataclass(frozen=True)
class Quotient:
    """X/I with the congruence it is read off.

    ``congruence.class_of`` is the projection and ``congruence.algebra`` X.
    One object per ideal lets the laws share one build of X/I; it carries
    no lattice (see :func:`lalg.spectrum.spectrum_facts`).
    """

    algebra: FiniteLAlgebra
    congruence: Congruence
