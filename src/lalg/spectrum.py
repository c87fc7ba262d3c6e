"""Prime ideals, the spectral topology, prime elements and relative spectra.

The prime ideals of an algebra form a topological space: a proper ideal P is
prime when I n J inside P forces I inside P or J inside P, the open sets are

    U_I = { P prime | I not inside P }

and I -> U_I is a bijection from the ideal lattice onto the opens.  This
module materializes that space, verifies its point-set properties (T0,
sobriety), computes prime and quasi-prime elements with
their attached prime ideals, and checks that opens and closed sets are again
spectra: Spec I matches U_I and Spec X/I matches its complement.  Its
functions return the facts (indices, masks, counts) and leave the verdicts
to the laws in :mod:`lalg.laws`; only :class:`TopologyReport`, which the
CLI prints, gathers several of them.

The points come from the Birkhoff dual of the (distributive) ideal lattice
along one route, :func:`lalg.ideals.point_masks`: one prime P_j per
join-irreducible ideal j, read off the principal masks without a lattice.
The opens are the lattice's down-sets, so a spectrum and its topology
report read no residuals, and sub-algebras and
quotients get no lattice at all (:func:`spectrum_facts`).  The two textbook
definitions of primality run once per algebra, in the law
``prime.definitions-agree``.

Each function takes what it reads and nothing else: a spectrum carries its
lattice (``spec.lattice``), a lattice its algebra (``lat.algebra``) and
its quotients (:meth:`IdealLattice.quotient_by`), and a law run passes its
dict of facts, so there is one way to call each and no fallback that
builds a second copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import FiniteLAlgebra, subalgebra
from .errors import (
    BijectionFailure,
    MaximalAvoiderNotPrime,
    NonUniqueAttachment,
    SpatialityFailure,
)
from .ideals import (
    IdealLattice,
    _join_irreducibles,
    bits,
    braced,
    close_under_rules,
    is_ideal,
    labels_of,
    mask_of,
    point_masks,
)


@dataclass(frozen=True)
class SpectrumTopology:
    """The prime ideals of one lattice plus open/point incidence.

    ``points[j]`` is the lattice index of P_j, the prime of the j-th
    join-irreducible; they are sorted only where printed.  Opens are bitmasks
    over point *positions*: bit j of ``opens[i]`` says that P_j lies in U of
    the i-th ideal, which is j in S_I, so ``opens`` is ``lattice.downsets``.
    """

    lattice: IdealLattice
    points: tuple[int, ...]
    opens: tuple[int, ...]

    @property
    def point_count(self) -> int:
        return len(self.points)

    @property
    def all_points_mask(self) -> int:
        return (1 << len(self.points)) - 1


def prime_ideals(lat: IdealLattice) -> SpectrumTopology:
    """The spectrum, read off the join-irreducibles by Birkhoff duality.

    ``points[j]`` is the lattice index of P_j, the mask that
    :func:`lalg.ideals.point_masks` gives for the j-th join-irreducible
    (which raises :class:`DistributivityFailure` for a j without P_j).
    I is not inside P_j exactly when the down-set S_I holds j, so the opens
    are ``lat.downsets``; no table is read.
    """
    principal = [lat.masks[k] for k in lat.principal]
    masks = point_masks(lat.algebra, principal, lat.join_irreducibles)
    return SpectrumTopology(lattice=lat, points=tuple(map(lat.index, masks)), opens=lat.downsets)


def spectrum_facts(alg: FiniteLAlgebra, facts: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The principal masks of ``alg`` and its point masks sorted by
    (popcount, mask), kept in ``facts`` by ``(alg.unit, alg.table)``.

    No lattice is built.  The facts carry no label, so algebras with one
    unit and table share them; a failure raises before anything is kept,
    and so names the algebra that asked.
    """
    key = (alg.unit, alg.table)
    got = facts.get(key)
    if got is None:
        principal = tuple(close_under_rules(alg, 1 << x) for x in range(alg.n))
        points = point_masks(alg, principal, _join_irreducibles(alg, principal))
        got = facts[key] = (principal, tuple(sorted(points, key=lambda m: (m.bit_count(), m))))
    return got


@dataclass(frozen=True)
class TopologyReport:
    """Point-set verdicts for one spectrum; failures carry witnesses."""

    t0: bool
    sober: bool
    irreducible_closed_count: int
    min_generators: tuple[int, ...]
    witnesses: tuple[str, ...] = ()


def _minimal_generator_counts(lat: IdealLattice) -> tuple[int, ...]:
    """Size of a smallest generating subset of each ideal, by lattice index.

    The ideal generated by a set is the join of its members' principal
    ideals, whose down-set is the union of theirs.  A breadth-first search
    over down-sets (ints) finds at level t the joins of t principal ideals:
    level t+1 is every S u S_<x> other than S for S new at level t, each
    new set looked up once in ``lat.by_downset``; one that no ideal has goes
    to :meth:`IdealLattice.join`, which raises.  The bottom's count is 0;
    the counts are what the quasi-compactness report records.
    """
    downsets, by_downset = lat.downsets, lat.by_downset
    generators = {downsets[p]: p for p in lat.principal}  # S_<x> -> the index of <x>
    counts = [-1] * len(lat)
    counts[lat.bottom] = 0
    seen, level, t = {downsets[lat.bottom]}, set(generators), 1
    while level:
        fresh = level - seen
        for d in fresh:
            k = by_downset.get(d)
            if k is None:  # S u S_<x> for some S met before: raises
                pairs = ((by_downset[e], p) for e in seen for g, p in generators.items() if e | g == d)
                lat.join(*next(pairs))
            counts[k] = t
        seen |= fresh
        level = {d | g for d in fresh for g in generators if g & ~d}
        t += 1
    return tuple(counts)


def point_closures(spec: SpectrumTopology) -> tuple[int, ...]:
    """cl(p) for every point, in one pass over the opens: q lies in cl(p)
    when every open that holds q holds p, so cl(p) is the complement of the
    union of the opens that miss p."""
    every = spec.all_points_mask
    missed_by = [0] * spec.point_count
    for u in spec.opens:
        for p in bits(every & ~u):
            missed_by[p] |= u
    return tuple(every & ~u for u in missed_by)


def topology_report(spec: SpectrumTopology) -> TopologyReport:
    """Verify T0 and sobriety on one spectrum and count minimal generators.

    Both are theorems; failures land in the report (and its witnesses)
    rather than raising, so a law run can flag them loudly with full context.
    An empty spectrum passes everything vacuously.  That the principal
    (quasi-compact) opens form a basis is :func:`compact_basis_failure`.

    Both read the :func:`point_closures`: two points are indistinguishable
    when they share a closure, and a non-empty closed set C is reducible
    exactly when it is the union of the point closures strictly inside it
    (if C is the union of two proper closed sets, each p in C lies in one
    and cl(p) with it).  p lies in cl(p), so only the closures of the points
    of C can lie inside C: O(|C|) per closed set, and each is tested.
    Every point closure is irreducible (p lies in cl(p) and in no point
    closure strictly inside it), so "each irreducible closed set has exactly
    one generic point" already makes p -> cl(p) a bijection onto the
    irreducible closed sets: ``sober`` says both.
    """
    lat = spec.lattice
    npts = spec.point_count
    witnesses: list[str] = []
    closures = point_closures(spec)

    def point(a: int) -> str:
        return braced(lat.algebra, lat.masks[spec.points[a]])

    t0 = True
    for a in range(npts):
        for b in range(a + 1, npts):
            if closures[a] == closures[b]:
                t0 = False
                witnesses.append(
                    f"points {point(a)} and {point(b)} are topologically indistinguishable"
                )

    closed_sets = sorted({spec.all_points_mask & ~u for u in spec.opens})

    def irreducible(c_mask: int) -> bool:
        inside = 0
        for p in bits(c_mask):
            cl = closures[p]
            if cl != c_mask and cl & ~c_mask == 0:
                inside |= cl
        return c_mask != 0 and inside != c_mask

    irr = [c for c in closed_sets if irreducible(c)]
    sober = True
    for c_mask in irr:
        if closures.count(c_mask) != 1:
            sober = False
            witnesses.append(
                f"irreducible closed set with {closures.count(c_mask)} generic points"
            )

    return TopologyReport(
        t0=t0,
        sober=sober,
        irreducible_closed_count=len(irr),
        min_generators=_minimal_generator_counts(lat),
        witnesses=tuple(witnesses),
    )


def compact_basis_failure(spec: SpectrumTopology) -> int | None:
    """Index of the first ideal I whose U_I is not the union of the U_<x>,
    x in I; None when the principal (quasi-compact) opens form a basis.
    Walked up :attr:`lalg.ideals.IdealLattice.lower_neighbours`, the union
    over I is U_I' (once I' has passed) u the U_<x> for x in I \\ I'."""
    lat, opens = spec.lattice, spec.opens
    principal = [opens[p] for p in lat.principal]
    for i, (k, rest) in enumerate(lat.lower_neighbours):
        union = opens[k] if k >= 0 else 0
        for x in rest:
            union |= principal[x]
        if union != opens[i]:
            return i
    return None


def prime_elements(alg: FiniteLAlgebra) -> tuple[int, ...]:
    """Elements p < 1 with, for every x, x <= p or x*p <= p."""
    out = []
    for p in range(alg.n):
        if p == alg.unit:
            continue
        if all(
            alg.leq(x, p) or alg.leq(alg.table[x][p], p) for x in range(alg.n)
        ):
            out.append(p)
    return tuple(out)


def quasi_prime_elements(lat: IdealLattice) -> tuple[int, ...]:
    """Elements q < 1 that no join of ideals can capture without a factor.

    q is quasi-prime when q in I v J implies q in I or q in J for every pair
    of ideals.  In any finite lattice of ideals that holds exactly when q
    lies outside the join of all ideals without q: every join of two ideals
    without q lies below that join, and when q is quasi-prime, joining the
    ideals without q one at a time never adds q.  So each q costs one union
    of masks and one :func:`close_under_rules`, not a scan over all pairs
    of ideals.  That every prime element qualifies is the law
    ``prime-elements.quasiprime``; nothing is checked here.
    """
    alg = lat.algebra
    out = []
    for q in range(alg.n):
        if q == alg.unit:
            continue
        rest = 0
        for mask in lat.masks:
            if not (mask >> q) & 1:
                rest |= mask
        if not (close_under_rules(alg, rest) >> q) & 1:
            out.append(q)
    return tuple(out)


def attach_prime_ideal(spec: SpectrumTopology, x: int, quasi: tuple[int, ...]) -> tuple[int, ...]:
    """Lattice indices of the ideals maximal among those avoiding x; each
    must be a point of ``spec``.

    For quasi-prime x (``quasi`` holds the :func:`quasi_prime_elements`) the
    maximal avoider is unique and the attachment map x -> P_x is well
    defined; several maximal avoiders are legal for other elements and are
    all returned, ascending.
    """
    lat = spec.lattice
    alg = lat.algebra
    if x == alg.unit:
        raise ValueError(f"{alg.name}: the unit is contained in every ideal")
    # indices follow popcount, so whatever lies strictly above k comes later:
    # in descending order an avoider is maximal when none found so far holds it
    maximal: list[int] = []
    for k in range(len(lat) - 1, -1, -1):
        mask = lat.masks[k]
        if not (mask >> x) & 1 and all(mask & ~lat.masks[q] for q in maximal):
            maximal.append(k)
    maximal.reverse()
    for k in maximal:
        if k not in spec.points:
            raise MaximalAvoiderNotPrime(
                f"{alg.name}: maximal ideal avoiding {alg.label(x)} is not prime",
                witness={
                    "algebra": alg.name,
                    "element": alg.label(x),
                    "ideal": labels_of(alg, lat.masks[k]),
                },
            )
    if x in quasi and len(maximal) != 1:
        raise NonUniqueAttachment(
            f"{alg.name}: quasi-prime {alg.label(x)} has {len(maximal)} maximal avoiders",
            witness={
                "algebra": alg.name,
                "element": alg.label(x),
                "ideals": [labels_of(alg, lat.masks[k]) for k in maximal],
            },
        )
    return tuple(maximal)


def at_most_one_atom(alg: FiniteLAlgebra, facts: dict) -> bool:
    """Is the ideal lattice of ``alg`` subdirectly irreducible?

    A finite lattice is, exactly when it has at most one atom, and the atoms
    of the ideal lattice are its minimal non-bottom principal ideals (a
    non-bottom ideal inside <x> holds some <y> above the bottom), read off
    the principal masks of :func:`spectrum_facts`.
    """
    principal = spectrum_facts(alg, facts)[0]
    above = set(principal) - {principal[alg.unit]}
    atoms = [q for q in above if not any(r != q and r & ~q == 0 for r in above)]
    return len(atoms) <= 1


def prime_quotient_oracle(spec: SpectrumTopology, facts: dict) -> int | None:
    """Index of the first proper ideal P where "P is a point" and "X/P is
    subdirectly irreducible" (:func:`at_most_one_atom`) disagree; None when
    they agree on every one.

    X/P comes from ``spec.lattice.quotient_by``, built once per ideal, so
    the route reads X/P and not the points of X.
    """
    lat = spec.lattice
    points = set(spec.points)
    for p in lat.proper_indices():
        if (p in points) != at_most_one_atom(lat.quotient_by(p).algebra, facts):
            return p
    return None


def relative_spectrum(spec: SpectrumTopology, i_index: int, facts: dict) -> tuple[int, int]:
    """Check that P -> I*P and Q -> Q n I invert between Spec I and U_I.

    I is the ideal at lattice index ``i_index``.  It is an algebra in its
    own right (ideals are operation-closed), and its point masks, like
    those of X/I (from ``spec.lattice.quotient_by``), come from
    :func:`spectrum_facts`, once per operation table in ``facts``.  Its
    primes must land exactly on the open set U_I of the ambient spectrum,
    and the primes of X/I must pull back exactly onto the complement.
    I*P and I*(Q n I) are single residuals (:meth:`IdealLattice.residual`),
    not the m^2 of :meth:`IdealLattice.residuals`, and a residual that is
    not an ideal raises :class:`~lalg.errors.ResiduationNotGreatest` for
    that pair.  Points are
    visited by ascending lattice index, so the first failure named does not
    depend on the order of ``spec.points``.  Any other failure, a sum
    |Spec I| + |Spec X/I| other than |Spec X| included, raises
    :class:`BijectionFailure` with the offending piece named.
    Returns (|Spec I|, |Spec X/I|).
    """
    lat = spec.lattice
    alg = lat.algebra
    imask = lat.masks[i_index]

    def fail(reason: str, **extra: object) -> BijectionFailure:
        return BijectionFailure(
            f"{alg.name}: relative spectrum of {braced(alg, imask)}: {reason}",
            witness={"algebra": alg.name, "ideal": labels_of(alg, imask), "reason": reason, **extra},
        )

    sub, elems = subalgebra(alg, imask)
    sub_primes = spectrum_facts(sub, facts)[1]

    u_open = spec.opens[i_index]
    u_lattice_indices = sorted(p for j, p in enumerate(spec.points) if (u_open >> j) & 1)
    u_members = set(u_lattice_indices)

    seen: set[int] = set()
    for pmask in sub_primes:
        lifted = 0
        for b in bits(pmask):
            lifted |= 1 << elems[b]
        if not is_ideal(alg, lifted):
            raise fail("a prime of the ideal is not an ideal of the ambient algebra")
        target = lat.residual(imask, lifted)
        if target not in u_members:
            raise fail("I*P escaped the open set U_I", prime=labels_of(alg, lifted))
        # round trip back: (I*P) n I must be P again
        if lat.masks[target] & imask != lifted:
            raise fail("(I*P) n I differs from P", prime=labels_of(alg, lifted))
        seen.add(target)

    for q_idx in u_lattice_indices:
        restricted = lat.masks[q_idx] & imask
        sub_mask = 0
        for new, old in enumerate(elems):
            if (restricted >> old) & 1:
                sub_mask |= 1 << new
        if sub_mask not in sub_primes:
            ideal = is_ideal(sub, sub_mask)
            raise fail("Q n I is not prime in I" if ideal else "Q n I is not an ideal of I")
        back = lat.residual(imask, restricted)
        if back != q_idx:
            raise fail("I*(Q n I) differs from Q")
        if q_idx not in seen:
            raise fail("a point of U_I is not hit by any prime of I")

    # closed part: Spec X/I against the complement A_I
    quot = lat.quotient_by(i_index)
    proj = quot.congruence.class_of
    q_primes = spectrum_facts(quot.algebra, facts)[1]
    complement = {p for j, p in enumerate(spec.points) if not (u_open >> j) & 1}
    pulled = set()
    for rmask in q_primes:
        pullback = 0
        for x in range(alg.n):
            if (rmask >> proj[x]) & 1:
                pullback |= 1 << x
        k = lat._index.get(pullback)
        if k is None:
            raise fail("pullback of a quotient prime is not an ideal")
        if k not in complement:
            raise fail("pullback of a quotient prime misses the closed set")
        pulled.add(k)
    if pulled != complement:
        raise fail("quotient primes do not cover the closed set")

    counts = (len(sub_primes), len(q_primes))
    if sum(counts) != spec.point_count:
        raise fail("|Spec I| + |Spec X/I| != |Spec X|", counts=[*counts, spec.point_count])
    return counts


def spatiality_check(spec: SpectrumTopology) -> None:
    """Every ideal is the intersection of the primes above it.

    The empty intersection is the full carrier.  A failure raises
    :class:`SpatialityFailure`.
    """
    lat = spec.lattice
    alg = lat.algebra
    for i in range(len(lat)):
        inter = alg.full_mask
        for p in spec.points:
            if lat.leq(i, p):
                inter &= lat.masks[p]
        if inter != lat.masks[i]:
            raise SpatialityFailure(
                f"{alg.name}: ideal is not the intersection of primes above it",
                witness={
                    "algebra": alg.name,
                    "ideal": labels_of(alg, lat.masks[i]),
                    "intersection": labels_of(alg, inter),
                },
            )


def check_frame_map(
    spec: SpectrumTopology, meet_prime: Callable[[int], bool], certified: bool
) -> tuple[int, str | None]:
    """U preserves meets and joins and is a bijection onto the opens.

    The opens of :func:`prime_ideals` are the down-sets, so U_I is first
    read again off the masks (P_j in U_I iff I not inside P_j), and
    injectivity, the bottom and the top are checked on the result.  Then
    U(I n J) = U_I n U_J for all I, J exactly when every point is
    meet-prime, which ``meet_prime`` decides for a lattice index (the
    principal form of :func:`lalg.laws._principal_primality`).  U sends
    I to S_I, so it preserves joins exactly when the distributivity
    certificate of :func:`lalg.ideals.certify_distributive` holds
    (``certified``).  Returns (instances checked, failure description or
    None): one per ideal read again and one per point decided.
    """
    lat = spec.lattice
    masks = lat.masks
    m = len(lat)
    for i, (imask, u) in enumerate(zip(masks, spec.opens)):
        if u != mask_of(j for j, p in enumerate(spec.points) if imask & ~masks[p]):
            return i + 1, "U_I is not the set of primes P with I not inside P"
    if len(set(spec.opens)) != m:
        return m, "I -> U_I is not injective"
    if spec.opens[lat.bottom] != 0:
        return m, "U of the bottom ideal is not empty"
    if spec.opens[lat.top] != spec.all_points_mask:
        return m, "U of the full ideal misses a point"
    for a, p in enumerate(spec.points):
        if not meet_prime(p):
            return m + a + 1, "U_(I n J) != U_I n U_J"
    if not certified:
        return m + spec.point_count, "U_(I v J) != U_I u U_J"
    return m + spec.point_count, None
