"""The law harness: every structural theorem, machine-checked per algebra.

Each law is one row in a static registry (id, description, applicability,
checker).  A checker receives a per-algebra context with lazily shared
derived structures and returns (instances checked, witness or None, detail).
Failures carry a replayable witness: the algebra document plus the offending
ideals or elements, enough to reproduce the verdict with :func:`replay`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

from .constructions import Fixture, product_injections
from .core import FiniteLAlgebra, axiom_violations, partial_product, structure_flags
from .errors import AxiomViolation, DistributivityFailure, FalsificationError, LAlgebraError, SizeTooLarge
from .formats import algebra_to_document, document_from_json_object
from .ideals import (
    Congruence, IdealLattice, bits, braced, certify_distributive, close_under_rules, enumerate_ideals,
    labels_of, mask_of, witness_joins,
)
from .spectrum import (
    SpectrumTopology, attach_prime_ideal, check_frame_map, compact_basis_failure, prime_elements,
    prime_ideals, prime_quotient_oracle, quasi_prime_elements, relative_spectrum, spatiality_check,
    topology_report,
)

CheckResult = tuple[int, dict | None, str | None]

#: The most ideals a law run reads a lattice of; above it the run stops with
#: :class:`SizeTooLarge`, a usage error.  ``join.witness-form`` checks
#: m(m+1)/2 pairs and ``ideal-lattice.is-l-algebra`` holds m^2 residuals:
#: anti12 (4,096 ideals) takes 12-13 s and 148 MB, anti13 52-59 s and 536 MB
#: (2-core VM, Python 3.11).
MAX_IDEALS = 4096


class Context:
    """Shared derived structures for one corpus algebra, each built on first read.

    The lattice holds the quotients (``ctx.lattice.quotient_by(k)``), the
    spectrum its lattice, and the spectrum functions read what they need off
    those, so every law that reads X/I, the spectrum, the topology report,
    the structure flags or the quasi-prime elements reads the one copy built
    here.  A lattice above :data:`MAX_IDEALS` raises :class:`SizeTooLarge`,
    which stops the run.  Nothing m x m is shared: ``ideal-lattice.is-l-algebra``
    builds the m^2 residuals it reads and drops them when it returns.  The
    per-algebra facts are decided once too: ``distributive`` is the
    :func:`certify_distributive` outcome (its instance count, or the
    :class:`DistributivityFailure` it raised), read by
    ``ideal-lattice.distributive``, ``residuation.adjunction`` and
    ``spectrum.frame-bijection``; :meth:`primality` is the
    :func:`_principal_primality` verdict of one ideal, decided on first
    read, for ``prime.definitions-agree``, the frame law and the two
    residuation laws.  Each law decides its own verdict from these facts.
    Only X has a lattice: the spectra of its quotients and sub-algebras are
    the run's ``facts`` (:func:`~lalg.spectrum.spectrum_facts`), which
    ``prime.iff-quotient-irreducible`` and ``relative-spectrum.bijection``
    are passed, so each operation table's facts are built once per run; the
    same dict keeps the ideal and point masks of each factor table that
    ``product.factorization`` reads (:func:`_factor_facts`).
    """

    def __init__(self, fixture: Fixture, facts: dict):
        self.fixture = fixture
        self.algebra = fixture.algebra
        self.factors = fixture.factors
        self.facts = facts
        self._primality: dict[int, dict[str, bool]] = {}

    @cached_property
    def lattice(self):
        lat = enumerate_ideals(self.algebra)
        if len(lat) > MAX_IDEALS:
            raise SizeTooLarge(f"{self.algebra.name}: {len(lat)} ideals exceed the law suite's cap of {MAX_IDEALS}")
        return lat

    @cached_property
    def distributive(self) -> int | DistributivityFailure:
        lat = self.lattice
        a = self.algebra
        try:
            return certify_distributive(
                lat.masks,
                lat.join_irreducibles,
                lat.downsets,
                lambda seed: close_under_rules(a, seed),
                a.name,
                lambda mask: labels_of(a, mask),
            )
        except DistributivityFailure as exc:
            return exc

    def primality(self, p: int) -> dict[str, bool]:
        verdict = self._primality.get(p)
        if verdict is None:
            verdict = self._primality[p] = _principal_primality(self.lattice, p)
        return verdict

    @cached_property
    def adjunction(self) -> CheckResult:
        # the verdict of residuation.adjunction, which ideal-lattice.is-l-algebra
        # also reads
        return _residuation_adjunction(self)

    @cached_property
    def topology(self):
        return prime_ideals(self.lattice)

    @cached_property
    def flags(self):
        return structure_flags(self.algebra)

    @cached_property
    def topology_report(self):
        return topology_report(self.topology)

    @cached_property
    def quasi_primes(self) -> tuple[int, ...]:
        # read by both prime-element laws
        return quasi_prime_elements(self.lattice)


@dataclass(frozen=True, slots=True)  # a run holds every row until it prints
class LawReport:
    """Verdict of one law on one corpus algebra."""

    law: str
    corpus: str
    verdict: str  # "pass" | "fail"
    instances: int
    time_s: float
    detail: str | None = None
    witness: dict | None = None


@dataclass(frozen=True)
class Law:
    id: str
    description: str
    check: Callable[[Context], CheckResult]


# --------------------------------------------------------------------------
# checkers


def _check_axioms(ctx: Context) -> CheckResult:
    a = ctx.algebra
    violations = axiom_violations(a.table, a.unit)
    n = a.n
    instances = 3 * n + n * n * n + n * (n - 1) // 2
    if violations:
        return instances, {"violations": [str(v) for v in violations]}, None
    return instances, None, None


def _check_order(ctx: Context) -> CheckResult:
    """One instance per element (reflexive, below the unit) and one per pair
    x < y (antisymmetric, and everything above y is above x)."""
    a = ctx.algebra
    above = a.order.above
    instances = 0
    for x in range(a.n):
        instances += 1
        if not (above[x] >> x) & 1:
            return instances, {"element": a.label(x), "problem": "not reflexive"}, None
        if not (above[x] >> a.unit) & 1:
            return instances, {"element": a.label(x), "problem": "unit not maximum"}, None
        for y in bits(above[x] & ~(1 << x)):
            instances += 1
            if (above[y] >> x) & 1:
                return instances, {"pair": [a.label(x), a.label(y)], "problem": "not antisymmetric"}, None
            beyond = above[y] & ~above[x]
            if beyond:
                z = next(bits(beyond))
                triple = [a.label(x), a.label(y), a.label(z)]
                return instances, {"triple": triple, "problem": "not transitive"}, None
    return instances, None, None


def _check_product_unique(ctx: Context) -> CheckResult:
    a = ctx.algebra
    for x in range(a.n):
        for y in range(a.n):
            partial_product(a, x, y)  # raises NonUniqueProduct on failure
    return a.n * a.n, None, None


def _check_product_adjunction(ctx: Context) -> CheckResult:
    a = ctx.algebra
    instances = 0
    for x in range(a.n):
        for y in range(a.n):
            z = partial_product(a, x, y)
            if z is None:
                continue
            for c in range(a.n):
                instances += 1
                if a.leq(z, c) != a.leq(x, a.table[y][c]):
                    labels = [a.label(v) for v in (x, y, z, c)]
                    return instances, dict(zip(("x", "y", "product", "c"), labels)), None
    return instances, None, None


def _brute_glb(ctx: Context, x: int, y: int) -> int | None:
    order = ctx.algebra.order
    common = order.below[x] & order.below[y]
    for z in bits(common):
        if common & ~order.below[z] == 0:
            return z
    return None


def _check_meet_glb(ctx: Context) -> CheckResult:
    a = ctx.algebra
    meets = ctx.flags.meets
    for x in range(a.n):
        for y in range(a.n):
            m = meets[x][y]
            g = _brute_glb(ctx, x, y)
            if m is not None and m != g:
                return a.n * a.n, {"pair": [a.label(x), a.label(y)], "meet": a.label(m)}, None
            if ctx.flags.meet_closed and m is None:
                return a.n * a.n, {"pair": [a.label(x), a.label(y)], "problem": "undefined meet"}, None
    return a.n * a.n, None, None


def _check_meet_distributes(ctx: Context) -> CheckResult:
    if not ctx.flags.brouwerian:
        return 0, None, "not Brouwerian, nothing to check"
    a = ctx.algebra
    t = a.table
    meets = ctx.flags.meets
    instances = 0
    for x in range(a.n):
        for y in range(a.n):
            for z in range(a.n):
                instances += 1
                if t[meets[x][y]][z] != t[t[x][y]][t[x][z]]:
                    law = "meet-out"
                elif t[x][meets[y][z]] != meets[t[x][y]][t[x][z]]:
                    law = "meet-in"
                else:
                    continue
                return instances, {"triple": [a.label(x), a.label(y), a.label(z)], "law": law}, None
    return instances, None, None


def _check_selfsimilar(ctx: Context) -> CheckResult:
    f = ctx.flags
    if f.self_similar != (ctx.algebra.n == 1):
        return 1, {"self_similar": f.self_similar, "n": ctx.algebra.n}, None
    return 1, None, None


def _check_distributivity(ctx: Context) -> CheckResult:
    # an embedding into the sets of join-irreducibles, see certify_distributive
    if isinstance(ctx.distributive, DistributivityFailure):
        raise ctx.distributive
    return ctx.distributive, None, f"{len(ctx.lattice)} ideals"


def _check_join_witness(ctx: Context) -> CheckResult:
    return sum(1 for _ in witness_joins(ctx.lattice)), None, None


def _check_residuation(ctx: Context) -> CheckResult:
    return ctx.adjunction


def _elementwise_residual(lat: IdealLattice, outside: int) -> int:
    """{x | <x> n I <= J} for ``outside`` = I \\ J, read off the principal ideals."""
    return mask_of(x for x, p in enumerate(lat.principal) if not lat.masks[p] & outside)


def _residuation_adjunction(ctx: Context) -> CheckResult:
    """K n I <= J exactly when K <= I*J (:meth:`IdealLattice.residual`).

    An ideal is the greatest such K exactly when it is {x | <x> n I <= J},
    since every K is the union of the <x> inside it.  That set turns meets
    in J into intersections, and joins in I too once the lattice is
    distributive, so it is the intersection of the sets for j a
    join-irreducible inside I and q a meet-irreducible above J (X if none),
    and ideals are closed under intersection.  So on a lattice certified
    distributive the k^2 pairs (j, q) and the bottom decide the law, one
    instance each: the residual is an ideal and is that set.  The
    meet-irreducibles are the principal meet-primes.  Without the
    certificate every triple is checked.
    """
    lat = ctx.lattice
    m = len(lat)
    masks = lat.masks
    if isinstance(ctx.distributive, int):
        meet_irreducibles = [masks[p] for p in range(m) if ctx.primality(p)["meet_form"]]
        pairs = [(masks[lat.bottom],) * 2, *((j, q) for j in lat.join_irreducibles for q in meet_irreducibles)]
        for instances, (imask, jmask) in enumerate(pairs, 1):
            wrong = masks[lat.residual(imask, jmask)] ^ _elementwise_residual(lat, imask & ~jmask)
            if wrong:  # K = <x> for x in one set and not the other
                named = zip("IJK", (masks[lat.principal[next(bits(wrong))]], imask, jmask))
                return instances, {key: labels_of(ctx.algebra, v) for key, v in named}, None
        return len(pairs), None, None
    residuals = lat.residuals()
    instances = 0
    for i in range(m):
        imask = masks[i]
        # I <= K for every K, and I n J <= K for every K once per distinct I n J
        contains = [imask & ~kmask == 0 for kmask in masks]
        below: dict[int, list[bool]] = {}
        for j, jmask in enumerate(masks):
            inside = imask & jmask
            lhs = below.get(inside)
            if lhs is None:
                lhs = below[inside] = [inside & ~kmask == 0 for kmask in masks]
            rhs = [contains[residuals[jmask & ~kmask]] for kmask in masks]
            if lhs != rhs:
                k = next(k for k in range(m) if lhs[k] != rhs[k])
                named = {key: labels_of(ctx.algebra, masks[v]) for key, v in zip("IJK", (i, j, k))}
                return instances + k + 1, named, None
            instances += m
    return instances, None, None


def _check_lattice_is_algebra(ctx: Context) -> CheckResult:
    """The residuation table is an L-algebra whose order is inclusion.

    The m^2 residuals are built here, one per distinct I \\ J, and dropped
    on return; the table is checked as it stands, so there is no carrier
    cap.  As I*J = I*(I n J) depends on I \\ J only, x*x = 1 and
    antisymmetry make the order inclusion.  Once ``residuation.adjunction``
    holds, each distinct residual is checked to be {x | <x> n I <= J}, whose
    adjunction that law decided; each K -> I*K is then a right adjoint, so
    both sides of the exchange identity, z -> (x*y)*(x*z) and
    z -> (y*x)*(y*z), preserve all meets, the top (the empty one) included,
    and the top and the meet-irreducibles decide it.  The lattice is then
    distributive (K n - is a left adjoint), and there the meet-irreducibles
    are the meet-primes (Davey & Priestley, ch. 2 and 5), which
    :func:`_principal_primality` finds.  Without the adjunction every column
    is checked.  A violation is reported through the full
    :func:`axiom_violations` list.
    """
    lat = ctx.lattice
    m = len(lat)
    masks = lat.masks
    residuals = lat.residuals()
    complements = [~jmask for jmask in masks]
    table = [tuple([residuals[imask & c] for c in complements]) for imask in masks]
    columns = None
    if ctx.adjunction[1] is None:
        for instances, (outside, r) in enumerate(residuals.items(), 1):
            if masks[r] != _elementwise_residual(lat, outside):
                pair = next((a, b) for a in masks for b in masks if a & ~b == outside)
                named = {key: labels_of(ctx.algebra, v) for key, v in zip("IJ", pair)}
                return instances, {**named, "problem": "residual is not {x | <x> n I <= J}"}, None
        columns = [lat.top, *(p for p in range(m) if ctx.primality(p)["meet_form"])]
    if axiom_violations(table, lat.top, columns):
        raise AxiomViolation(axiom_violations(table, lat.top))
    return m * m, None, None


def _check_ideal_shape(ctx: Context) -> CheckResult:
    a = ctx.algebra
    lat = ctx.lattice
    order = a.order
    instances = 0
    for mask in lat.masks:
        for x in bits(mask):
            instances += 1
            if order.above[x] & ~mask:
                return instances, {"ideal": labels_of(a, mask), "problem": "not an upper set"}, None
            row = a.table[x]
            for y in bits(mask):
                if not (mask >> row[y]) & 1:
                    return instances, {"ideal": labels_of(a, mask), "problem": "not operation-closed"}, None
    return instances, None, None


#: Above this carrier size the set-partition sweep (Bell numbers of
#: partitions, decided prefix by prefix) is dropped and only the per-ideal
#: checks run.
_PARTITION_SWEEP_LIMIT = 8


@cache
def _completions(r: int, g: int) -> int:
    """The partitions that extend a prefix with ``g`` classes by ``r`` more
    elements: T(0, g) = 1, T(r, g) = g T(r-1, g) + T(r-1, g+1)."""
    if r == 0:
        return 1
    return g * _completions(r - 1, g) + _completions(r - 1, g + 1)


def _compatible_partitions(t: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """Every partition of the carrier of ``t`` whose classes are compatible
    with the operation on both sides, and the number of partitions decided.

    A depth-first sweep places the elements 0, 1, ... in order, each in an
    open class or a new one; a partition is the tuple of the class of each
    element, the classes numbered by their least member.  Compatibility is
    the constraints (x, rep, z): z*x ~ z*rep and x*z ~ rep*z for each x and
    the least member rep of its class.  After placing k, the sweep tests the
    constraints that k completes, those whose x, rep, z and four products
    are all placed and one of them is k; a prefix that breaks one has no
    compatible extension, and it is decided with all its completions
    (:func:`_completions`).  So the count is always the Bell number B(n)."""
    n = len(t)
    # the last of x, z, z*x and x*z to be placed
    level = [[max(x, z, t[z][x], t[x][z]) for z in range(n)] for x in range(n)]
    class_of = [0] * n
    reps: list[int] = []
    leaves: list[tuple[int, ...]] = []
    decided = 0

    def broken(k: int) -> bool:
        for x in range(1, k + 1):
            rep = reps[class_of[x]]
            if rep == x:
                continue
            at_x, at_rep, tx, trep = level[x], level[rep], t[x], t[rep]
            for z in range(k + 1):
                lx, lr = at_x[z], at_rep[z]
                # max(lx, lr) == k, without a call on the sweep's hottest line
                if (lx if lx > lr else lr) == k and (
                    class_of[t[z][x]] != class_of[t[z][rep]]
                    or class_of[tx[z]] != class_of[trep[z]]
                ):
                    return True
        return False

    def place(k: int) -> None:
        nonlocal decided
        if k == n:
            decided += 1
            leaves.append(tuple(class_of))
            return
        for g in range(len(reps) + 1):
            class_of[k] = g
            if g == len(reps):
                reps.append(k)
            if broken(k):
                decided += _completions(n - k - 1, len(reps))
            else:
                place(k + 1)
            if reps[-1] == k:
                reps.pop()

    place(0)
    return decided, leaves


def _incompatible(
    t: Sequence[Sequence[int]], class_of: Sequence[int], classes: Sequence[Sequence[int]]
) -> tuple[int, int, int] | None:
    """The first (x, rep, z) where x and the first member rep of its class
    multiply z, on either side, into different classes; None if compatible."""
    for cls in classes:
        rep = cls[0]
        for x in cls[1:]:
            for z in range(len(t)):
                if (
                    class_of[t[z][x]] != class_of[t[z][rep]]
                    or class_of[t[x][z]] != class_of[t[rep][z]]
                ):
                    return x, rep, z
    return None


def _congruence_problem(a: FiniteLAlgebra, imask: int, cong: Congruence) -> dict | None:
    """Is x ~ y (x*y and y*x in I) the same-class relation of ``cong``, and
    is every class compatible with the operation on both sides?"""
    t = a.table
    class_of = cong.class_of
    for x in range(a.n):
        for y in range(a.n):
            related = (imask >> t[x][y]) & 1 and (imask >> t[y][x]) & 1
            if bool(related) != (class_of[x] == class_of[y]):
                return {"pair": [a.label(x), a.label(y)], "problem": "not an equivalence"}
    triple = _incompatible(t, class_of, [list(bits(cls)) for cls in cong.classes])
    if triple is not None:
        return {"triple": [a.label(v) for v in triple], "problem": "not compatible"}
    return None


def _check_congruence_bijection(ctx: Context) -> CheckResult:
    """Ideals and congruences determine each other, both ways round.

    For every ideal I, the congruence that the shared X/I is read off
    (:func:`congruence_of`) is a compatible equivalence whose unit class is
    I; up to ``_PARTITION_SWEEP_LIMIT`` elements, every compatible partition
    with an L-algebra quotient is also one of these.  The partitions are
    decided prefix by prefix (:func:`_compatible_partitions`): a prefix that
    breaks a compatibility constraint it completes is pruned with all its
    completions, and each compatible partition gets the L-quotient
    (antisymmetry) filter.  Both sides number their classes by least
    member, so two partitions are equal exactly when their class maps are.
    The sweep counts one instance per partition decided, B(n) in all."""
    a = ctx.algebra
    lat = ctx.lattice
    t = a.table
    instances = 0

    from_ideals = {}
    for k, mask in enumerate(lat.masks):
        cong = lat.quotient_by(k).congruence
        instances += 1
        problem = _congruence_problem(a, mask, cong)
        if problem is not None:
            return instances, {"ideal": labels_of(a, mask), **problem}, None
        if cong.unit_class() != mask:
            return instances, {"ideal": labels_of(a, mask), "problem": "unit class is not the ideal"}, None
        from_ideals[cong.class_of] = mask

    if a.n > _PARTITION_SWEEP_LIMIT:
        skipped = f"round trip on {len(from_ideals)} ideals; partition sweep skipped at n={a.n}"
        return instances, None, skipped

    decided, leaves = _compatible_partitions(t)
    instances += decided
    compatible = set()
    for class_of in leaves:
        # a compatible equivalence is only a congruence when the quotient
        # is again an L-algebra; the unit laws and the exchange identity
        # are equations and survive any quotient, antisymmetry need not
        reps: list[int] = []
        for x, c in enumerate(class_of):
            if c == len(reps):
                reps.append(x)
        ubar = class_of[a.unit]
        if not any(
            class_of[t[x][y]] == ubar and class_of[t[y][x]] == ubar
            for i, x in enumerate(reps)
            for y in reps[i + 1 :]
        ):
            compatible.add(class_of)

    if compatible != set(from_ideals):
        counts = {"congruences": len(compatible), "ideals": len(from_ideals)}
        return instances, {**counts, "problem": "congruence/ideal families differ"}, None
    return instances, None, f"{len(from_ideals)} congruences"


def _check_quotient_morphism(ctx: Context) -> CheckResult:
    a = ctx.algebra
    lat = ctx.lattice
    instances = 0
    for k, mask in enumerate(lat.masks):
        q = lat.quotient_by(k)
        quot, proj = q.algebra, q.congruence.class_of
        violations = axiom_violations(quot.table, quot.unit)
        if violations:
            return instances, {"ideal": labels_of(a, mask), "violations": [str(v) for v in violations]}, None
        for x in range(a.n):
            for y in range(a.n):
                instances += 1
                if proj[a.table[x][y]] != quot.table[proj[x]][proj[y]]:
                    return instances, {"ideal": labels_of(a, mask), "pair": [a.label(x), a.label(y)]}, None
        kernel = sum(1 << x for x in range(a.n) if proj[x] == proj[a.unit])
        if kernel != mask:
            return instances, {"ideal": labels_of(a, mask), "problem": "kernel mismatch"}, None
    return instances, None, None


def _principal_primality(lat: IdealLattice, p: int) -> dict[str, bool]:
    """Both forms of "the p-th ideal P is prime", decided on the principal
    ideals <y> of the elements y outside P: n^2 mask tests, not m^2.

    Each form reduces to these by monotonicity alone.  Meet form (I n J <= P
    only when I <= P or J <= P): for x in I and y in J, both outside P,
    <x> n <y> lies inside I n J.  Residuation form (I <= P or I*P <= P for
    every I): I*P shrinks as I grows, and every I not inside P holds some <y>
    with y outside P; <y>*P is the element-wise residual the table is built
    from.  The top is prime in neither form.
    """
    pmask = lat.masks[p]
    outside = list({lat.masks[k] for x, k in enumerate(lat.principal) if not (pmask >> x) & 1})
    proper = p != lat.top
    return {
        "residuation_form": proper
        and all(lat._residuation_mask(q, pmask) & ~pmask == 0 for q in outside),
        "meet_form": proper
        and all(q & r & ~pmask for i, q in enumerate(outside) for r in outside[i + 1 :]),
    }


def _check_prime_definitions(ctx: Context) -> CheckResult:
    """Each ideal is a point of the dual spectrum exactly when it is prime by
    residuation and exactly when it is prime by meets."""
    lat = ctx.lattice
    spec = ctx.topology
    points = set(spec.points)
    for p in range(len(lat)):
        verdicts = {"dual_form": p in points, **ctx.primality(p)}
        if len(set(verdicts.values())) > 1:
            return p + 1, {"ideal": labels_of(lat.algebra, lat.masks[p]), **verdicts}, None
    return len(lat), None, f"{spec.point_count} points"


def _check_prime_quotient(ctx: Context) -> CheckResult:
    """One instance per proper ideal P decided: P is a point exactly when X/P
    is subdirectly irreducible."""
    lat = ctx.lattice
    p = prime_quotient_oracle(ctx.topology, ctx.facts)
    if p is None:
        return len(lat) - 1, None, None
    prime = p in ctx.topology.points
    witness = {
        "ideal": labels_of(ctx.algebra, lat.masks[p]),
        "prime": prime,
        "quotient_subdirectly_irreducible": not prime,
    }
    return p + 1, witness, None


def _check_t0_sober(ctx: Context) -> CheckResult:
    rep = ctx.topology_report
    npts = ctx.topology.point_count
    instances = npts * npts + rep.irreducible_closed_count
    if not (rep.t0 and rep.sober):
        return instances, {"witnesses": list(rep.witnesses)}, None
    return instances, None, f"{npts} points, {rep.irreducible_closed_count} irreducible closed sets"


def _check_compact_basis(ctx: Context) -> CheckResult:
    """Each open U_I is the union of the opens U_<x> over x in I, so the
    principal (quasi-compact) opens form a basis."""
    i = compact_basis_failure(ctx.topology)
    if i is not None:
        problem = "U_I is not the union of its principal opens"
        return i + 1, {"ideal": labels_of(ctx.algebra, ctx.lattice.masks[i]), "problem": problem}, None
    rep = ctx.topology_report
    biggest = max(rep.min_generators, default=0)
    detail = (
        f"every ideal finitely generated (largest minimal generating set: {biggest}); "
        f"intersections of quasi-compact opens stay quasi-compact on finite instances"
    )
    return len(ctx.lattice), None, detail


def _check_frame(ctx: Context) -> CheckResult:
    certified = isinstance(ctx.distributive, int)
    instances, problem = check_frame_map(ctx.topology, lambda p: ctx.primality(p)["meet_form"], certified)
    return instances, None if problem is None else {"problem": problem}, None


def _check_spatial(ctx: Context) -> CheckResult:
    spatiality_check(ctx.topology)
    return len(ctx.lattice), None, None


def _check_quasiprime(ctx: Context) -> CheckResult:
    a = ctx.algebra
    primes, quasi = prime_elements(a), ctx.quasi_primes
    for p in primes:
        if p not in quasi:
            return a.n, {"element": a.label(p), "problem": "prime but not quasi-prime"}, None
    detail = f"primes {braced(a, mask_of(primes))} <= quasi-primes {braced(a, mask_of(quasi))}"
    return a.n, None, detail


def _check_attachment(ctx: Context) -> CheckResult:
    """Every element below the unit: its maximal avoiders are points, and a
    quasi-prime has exactly one (:func:`attach_prime_ideal` raises if not)."""
    a = ctx.algebra
    non_unique = sum(
        len(attach_prime_ideal(ctx.topology, x, ctx.quasi_primes)) != 1 for x in range(a.n) if x != a.unit
    )
    return max(a.n - 1, 0), None, f"{non_unique} elements with several maximal avoiders" if non_unique else None


def _check_relative_spectrum(ctx: Context) -> CheckResult:
    lat = ctx.lattice
    for k in range(len(lat)):
        relative_spectrum(ctx.topology, k, ctx.facts)
    return len(lat), None, None


def _principal_opens_cover(spec: SpectrumTopology) -> bool:
    """x -> U_<x> is onto the opens: every U_I is some U_<x>."""
    return {spec.opens[k] for k in spec.lattice.principal} == set(spec.opens)


def _check_principal_meet_join(ctx: Context) -> CheckResult:
    """<x> v <y> = <x n y> wherever the meet is defined; a meet-closed
    algebra then has only principal ideals, and x -> U_<x> is onto."""
    lat = ctx.lattice
    flags = ctx.flags
    instances = 0
    for x, row in enumerate(flags.meets):
        for y, w in enumerate(row):
            if w is None:
                continue
            instances += 1
            if lat.join(lat.principal[x], lat.principal[y]) != lat.principal[w]:
                return instances, {"problem": "join of principal ideals is not the principal ideal of the meet"}, None
    if not flags.meet_closed:
        return instances, None, "not meet-closed; principality not required"
    if len(set(lat.principal)) != len(lat):
        return instances, {"problem": "a meet-closed algebra has a non-principal ideal"}, None
    if not _principal_opens_cover(ctx.topology):
        return instances, {"problem": "element map misses an open set"}, None
    return instances, None, "every ideal principal"


def _check_point_map(ctx: Context) -> CheckResult:
    """x -> U_<x> reverses order; on a meet-closed algebra it is a bijection
    onto the opens exactly when the algebra is Brouwerian."""
    a = ctx.algebra
    spec = ctx.topology
    opens = [spec.opens[ctx.lattice.principal[x]] for x in range(a.n)]
    for x in range(a.n):
        for y in range(a.n):
            if a.leq(x, y) and opens[y] & ~opens[x]:
                return a.n, {"problem": "element map is not order-reversing"}, None
    injective = len(set(opens)) == a.n
    brouwerian = ctx.flags.brouwerian
    detail = f"{'' if injective else 'not '}injective, {'' if brouwerian else 'not '}Brouwerian"
    bijective = injective and _principal_opens_cover(spec)
    if ctx.flags.meet_closed and bijective != brouwerian:
        return a.n, {"bijective": bijective, "brouwerian": brouwerian}, detail
    return a.n, None, detail


def _factor_facts(ctx: Context, alg: FiniteLAlgebra) -> tuple[frozenset[int], tuple[int, ...]]:
    """The ideal masks and the point masks of a product's factor, from one
    lattice per operation table in a run, kept in the run's ``facts``."""
    key = ("factor", alg.unit, alg.table)
    got = ctx.facts.get(key)
    if got is None:
        lat = enumerate_ideals(alg)
        got = ctx.facts[key] = frozenset(lat.masks), tuple(lat.masks[p] for p in prime_ideals(lat).points)
    return got


def _check_product_factorization(ctx: Context) -> CheckResult:
    if ctx.factors is None:
        return 0, None, "not a product fixture"
    x, y = ctx.factors
    a = ctx.algebra
    left, right = product_injections(x, y)
    lat = ctx.lattice
    ideals_x, points_x = _factor_facts(ctx, x)
    ideals_y, points_y = _factor_facts(ctx, y)
    instances = 0

    pairs = set()
    for mask in lat.masks:
        instances += 1
        ix = sum(1 << i for i in range(x.n) if (mask >> left[i]) & 1)
        iy = sum(1 << j for j in range(y.n) if (mask >> right[j]) & 1)
        if ix not in ideals_x or iy not in ideals_y:
            return instances, {"problem": "projection of an ideal is not an ideal"}, None
        rebuilt = 0
        for i in bits(ix):
            for j in bits(iy):
                rebuilt |= 1 << (i * y.n + j)
        if rebuilt != mask:
            return instances, {"ideal": labels_of(a, mask), "problem": "not a rectangle"}, None
        pairs.add((ix, iy))
    if len(pairs) != len(ideals_x) * len(ideals_y):
        return instances, {"problem": "ideal lattice is not the product of the factors"}, None

    spec = ctx.topology
    expected = set()
    for p in points_x:
        expected.add(sum(1 << (i * y.n + j) for i in bits(p) for j in range(y.n)))
    for q in points_y:
        expected.add(sum(1 << (i * y.n + j) for i in range(x.n) for j in bits(q)))
    actual = {lat.masks[p] for p in spec.points}
    instances += len(expected)
    if actual != expected:
        return instances, {"problem": "spectrum is not the disjoint union of the factor spectra"}, None
    return instances, None, f"{len(lat)} ideals, {spec.point_count} points"


LAWS: tuple[Law, ...] = (
    Law("validate.axioms", "the operation table satisfies the defining axioms", _check_axioms),
    Law("order.partial-order", "x <= y iff x*y = 1 is a partial order with top 1", _check_order),
    Law("product.uniqueness", "partial products have at most one witness", _check_product_unique),
    Law("product.adjunction", "xy <= c iff x <= y*c at every defined product", _check_product_adjunction),
    Law("meet.glb", "the product-form meet is the greatest lower bound", _check_meet_glb),
    Law("meet.brouwerian-distributive", "meets distribute over the operation in Brouwerian algebras", _check_meet_distributes),
    Law("selfsimilar.iff-singleton", "a finite algebra is self-similar only when trivial", _check_selfsimilar),
    Law("ideal-lattice.distributive", "the ideal lattice is distributive", _check_distributivity),
    Law("join.witness-form", "joins match their congruence-witness characterization", _check_join_witness),
    Law("residuation.adjunction", "K n I <= J exactly when K <= I*J", _check_residuation),
    Law("ideal-lattice.is-l-algebra", "ideals with residuation form an L-algebra with unit X", _check_lattice_is_algebra),
    Law("ideal.upper-subalgebra", "every ideal is an upper set and a subalgebra", _check_ideal_shape),
    Law("congruence.bijection", "ideals and congruences determine each other", _check_congruence_bijection),
    Law("quotient.morphism", "projections are morphisms with the ideal as kernel", _check_quotient_morphism),
    Law("prime.definitions-agree", "residuation-form and meet-form primality coincide", _check_prime_definitions),
    Law("prime.iff-quotient-irreducible", "P is prime iff X/P is subdirectly irreducible", _check_prime_quotient),
    Law("spectrum.t0-sober", "the spectrum is T0 and sober with unique generic points", _check_t0_sober),
    Law("spectrum.compact-basis", "quasi-compact opens (finitely generated ideals) form a basis", _check_compact_basis),
    Law("spectrum.frame-bijection", "I -> U_I is a bijection preserving meets and joins", _check_frame),
    Law("spectrum.spatial", "every ideal is the intersection of the primes above it", _check_spatial),
    Law("prime-elements.quasiprime", "every prime element is quasi-prime", _check_quasiprime),
    Law("prime-elements.attachment", "maximal avoiding ideals are prime, unique for quasi-primes", _check_attachment),
    Law("relative-spectrum.bijection", "Spec I matches U_I, Spec X/I its complement, sizes add up", _check_relative_spectrum),
    Law("principal-ideals.meet-join", "meet-closed: every ideal is principal via <x> v <y> = <x n y>", _check_principal_meet_join),
    Law("point-map.brouwerian", "x -> U_<x> is antitone; bijective iff Brouwerian (meet-closed)", _check_point_map),
    Law("product.factorization", "ideals and spectrum of a product factor through the factors", _check_product_factorization),
)

_LAW_BY_ID = {law.id: law for law in LAWS}


def law_ids() -> tuple[str, ...]:
    return tuple(law.id for law in LAWS)


def _run_one(law: Law, ctx: Context, corpus_id: str) -> LawReport:
    """One row: a raised error fails it with 0 instances, no detail and the
    error's name, message and witness; every failing row carries the algebra.
    :class:`SizeTooLarge` is an input limit, not a falsification: it stops
    the run."""
    start = time.perf_counter()
    try:
        instances, witness, detail = law.check(ctx)
    except SizeTooLarge:
        raise
    except LAlgebraError as exc:
        instances, detail = 0, None
        witness = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, FalsificationError):
            witness.update(exc.witness)
        elif isinstance(exc, AxiomViolation):
            witness["violations"] = [str(v) for v in exc.violations]
    elapsed = time.perf_counter() - start
    if witness is not None:
        witness = {**witness, "algebra_document": algebra_to_document(ctx.algebra).to_json_object()}
    return LawReport(
        law=law.id,
        corpus=corpus_id,
        verdict="pass" if witness is None else "fail",
        instances=instances,
        time_s=elapsed,
        detail=detail,
        witness=witness,
    )


def _laws_for(selection: Sequence[str] | None) -> tuple[Law, ...]:
    if selection is None:
        return LAWS
    unknown = [s for s in selection if s not in _LAW_BY_ID]
    if unknown:
        raise KeyError(f"unknown law id(s): {', '.join(unknown)}")
    return tuple(_LAW_BY_ID[s] for s in selection)


def run_suite(corpus: Sequence[Fixture], laws: Sequence[str] | None = None) -> list[LawReport]:
    """Evaluate the selected laws on every corpus algebra.

    Rows come back sorted by (law id, corpus id).  One dict of
    :func:`~lalg.spectrum.spectrum_facts` serves the whole call and goes
    with it: facts kept across calls would hand a later run the work of an
    earlier one, which a single run from the command line never gets.
    Sub-algebras and quotients with one operation table share their facts
    (anti7's 128 sub-algebras have 8 tables).
    """
    selected = _laws_for(laws)  # fails fast on unknown ids
    facts: dict = {}
    reports = []
    for fixture in corpus:
        ctx = Context(fixture, facts)
        reports.extend(_run_one(law, ctx, fixture.name) for law in selected)
    reports.sort(key=lambda r: (r.law, r.corpus))
    return reports


def run_law(law_id: str, fixture: Fixture) -> LawReport:
    """Evaluate a single law on a single algebra (used by witness replay)."""
    (law,) = _laws_for([law_id])
    return _run_one(law, Context(fixture, {}), fixture.name)


def replay(report: LawReport) -> LawReport:
    """Re-run a failed law on the algebra frozen inside its witness.

    The algebra is rebuilt without the axiom check, since falsification
    witnesses are typically *not* L-algebras.
    """
    if report.witness is None or "algebra_document" not in report.witness:
        raise ValueError("report carries no replayable witness")
    doc = document_from_json_object(report.witness["algebra_document"])
    alg = doc.to_algebra(validated=False)
    return run_law(report.law, Fixture(report.corpus, alg))


def all_pass(reports: Sequence[LawReport]) -> bool:
    return all(r.verdict == "pass" for r in reports)
