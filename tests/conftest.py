import pytest

from lalg.constructions import enumerate_all, fixtures
from lalg.core import FiniteLAlgebra


@pytest.fixture(scope="session")
def fixture_map():
    return {f.name: f for f in fixtures()}


@pytest.fixture(scope="session")
def algebras(fixture_map):
    return {name: f.algebra for name, f in fixture_map.items()}


@pytest.fixture(scope="session")
def b2(algebras):
    return algebras["B2"]


@pytest.fixture(scope="session")
def diamond(algebras):
    return algebras["diamond"]


@pytest.fixture(scope="session")
def chain3(algebras):
    return algebras["chain3"]


@pytest.fixture(scope="session")
def omega3(algebras):
    return algebras["omega3"]


@pytest.fixture(scope="session")
def small_corpus():
    """Every L-algebra with at most 3 elements (unit at index 0)."""
    return [a for n in (1, 2, 3) for a in enumerate_all(n)]


@pytest.fixture(scope="session")
def corpus_to_five(algebras):
    """The fixtures, every labelled table with n <= 4 and the 632 classes at n = 5."""
    corpus = list(algebras.values())
    corpus += [a for n in (1, 2, 3, 4) for a in enumerate_all(n)]
    iso5 = list(enumerate_all(5, up_to_iso=True))
    assert len(iso5) == 632
    return corpus + iso5


@pytest.fixture(scope="session")
def magma():
    """A table that is not an L-algebra: modulo {1}, a ~ b and b ~ c but not a ~ c."""
    return FiniteLAlgebra(
        "magma",
        ("1", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (0, 0, 0, 3), (0, 0, 0, 0), (0, 1, 0, 0)),
    )


@pytest.fixture(scope="session")
def absorption_magma():
    """A table that is not an L-algebra: b*(a*b) = c is the one rule
    instance that leads out of {1, a}, and c then detaches everything."""
    return FiniteLAlgebra(
        "absorption-magma",
        ("1", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (0, 0, 3, 3), (0, 0, 0, 3), (0, 0, 0, 0)),
    )


def _upper_set_masks(spec):
    """Masks of all non-empty upward-closed subsets of a poset (each holds the top)."""
    leq = spec.leq_matrix()
    n = len(spec.elements)
    assert n <= 12, "the oracle sweeps all 2^n subsets"
    return {
        mask
        for mask in range(1, 1 << n)
        if all((mask >> j) & 1 for i in range(n) if (mask >> i) & 1 for j in range(n) if leq[i][j])
    }


@pytest.fixture(scope="session")
def upper_set_masks():
    """Test-only oracle for poset algebras: their ideals are the non-empty upper sets."""
    return _upper_set_masks


def _residuation_table(lat):
    """Test-only oracle: the m x m residuation table, one
    :meth:`IdealLattice.residual` per entry (no memo), as rows of indices."""
    return tuple(tuple(lat.residual(a, b) for b in lat.masks) for a in lat.masks)


@pytest.fixture(scope="session")
def residuation_table():
    """lat -> the residuation table, built entry by entry from ``residual``."""
    return _residuation_table


def _is_prime_residuation(lat, p):
    """Proper P with, for every ideal I, I <= P or I*P <= P (one residual each)."""
    if p == lat.top:
        return False
    for i in range(len(lat)):
        if not lat.leq(i, p) and not lat.leq(lat.residual(lat.masks[i], lat.masks[p]), p):
            return False
    return True


def _is_prime_meet(lat, p):
    """Proper P with I n J <= P only when I <= P or J <= P, over all pairs."""
    if p == lat.top:
        return False
    pmask = lat.masks[p]
    m = len(lat)
    for i in range(m):
        if lat.masks[i] & ~pmask == 0:
            continue
        for j in range(i, m):
            if (lat.masks[i] & lat.masks[j]) & ~pmask == 0 and lat.masks[j] & ~pmask:
                return False
    return True


def _meet_irreducibles(masks, full):
    """Indices of the members other than the top that are not the
    intersection of the members strictly above them.

    ``masks`` are distinct and sorted by popcount, so every member strictly
    above the i-th one comes after it.
    """
    out = []
    for i, mask in enumerate(masks):
        above = full
        for other in masks[i + 1 :]:
            if mask & ~other == 0:
                above &= other
                if above == mask:
                    break
        if above != mask:
            out.append(i)
    return out


@pytest.fixture(scope="session")
def prime_oracles():
    """Test-only m^2 scans: the residuation form and the meet form of
    "the p-th ideal is prime", each over every ideal, as (lat, p) -> bool."""
    return _is_prime_residuation, _is_prime_meet


@pytest.fixture(scope="session")
def meet_irreducibles():
    """Test-only O(m^2) scan for the meet-irreducible members of a family of
    masks, as (masks, full mask) -> indices."""
    return _meet_irreducibles


def _frame_facts(lat):
    """The two facts ``check_frame_map`` reads, built as a law run builds
    them: the principal meet form of each point, and whether the
    distributivity certificate holds."""
    from lalg.errors import DistributivityFailure
    from lalg.ideals import certify_distributive, close_under_rules
    from lalg.laws import _principal_primality

    alg = lat.algebra
    join = lambda seed: close_under_rules(alg, seed)
    try:
        certify_distributive(lat.masks, lat.join_irreducibles, lat.downsets, join, alg.name, int)
        certified = True
    except DistributivityFailure:
        certified = False
    return (lambda p: _principal_primality(lat, p)["meet_form"]), certified


@pytest.fixture(scope="session")
def frame_facts():
    """lat -> (meet_prime, certified), the arguments of ``check_frame_map``
    after the spectrum."""
    return _frame_facts


def _witness_joins_all_pairs(lat):
    """Test-only oracle: the witness join of every pair i <= j of lattice
    indices, each built from scratch as the union over x in I of
    {y | x*y and y*x in J}, as {(i, j): mask}."""
    alg = lat.algebra
    t = alg.table
    out = {}
    for i, imask in enumerate(lat.masks):
        for j in range(i, len(lat)):
            jmask = lat.masks[j]
            w = 0
            for x in range(alg.n):
                if (imask >> x) & 1:
                    for y in range(alg.n):
                        if (jmask >> t[x][y]) & 1 and (jmask >> t[y][x]) & 1:
                            w |= 1 << y
            out[i, j] = w
    return out


def _residuation_scan(lat, imask, jmask):
    """Test-only oracle: I*J = {x | <x> n I <= J}, one principal ideal per element."""
    outside = imask & ~jmask
    out = 0
    for x, p in enumerate(lat.principal):
        if lat.masks[p] & outside == 0:
            out |= 1 << x
    return out


@pytest.fixture(scope="session")
def lattice_oracles():
    """Test-only routes next to the production ones: the all-pairs witness
    join (lat -> {(i, j): mask}) and the element-by-element residual
    (lat, imask, jmask -> mask)."""
    return _witness_joins_all_pairs, _residuation_scan


def _subdirectly_irreducible(lat):
    """Test-only oracle: no two non-trivial ideals may intersect down to
    the bottom.

    Finite criterion: the intersection of all non-trivial ideals (the
    monolith) is itself non-trivial, vacuously true without non-trivial
    ideals.  Equivalent to the pair-wise definition on finite lattices.
    """
    bottom = lat.masks[lat.bottom]
    nontrivial = [m for m in lat.masks if m != bottom]
    if not nontrivial:
        return True
    monolith = lat.algebra.full_mask
    for m in nontrivial:
        monolith &= m
    return monolith != bottom


@pytest.fixture(scope="session")
def subdirectly_irreducible():
    """lat -> bool, the monolith scan over every ideal of a built lattice."""
    return _subdirectly_irreducible


def _ideal_masks_gated(alg, principal, joinirr):
    """Test-only oracle: the walk over the down-sets of the join-irreducibles
    with ``is_ideal`` at every leaf, each cand(S) read off the principal
    masks from scratch, as (mask, S) pairs.  It reads ``is_ideal`` off the
    module, so a planted gate applies here too."""
    from lalg import ideals

    k = len(joinirr)
    lower = [d ^ 1 << j for j, d in enumerate(ideals._downsets(joinirr, joinirr))]
    need = ideals._downsets(joinirr, principal)
    out = []
    stack = [(0, 0)]
    while stack:
        j, down = stack.pop()
        if j == k:
            cand = ideals.mask_of(x for x, nx in enumerate(need) if nx & ~down == 0)
            if ideals.is_ideal(alg, cand):
                out.append((cand, down))
            continue
        stack.append((j + 1, down))
        if lower[j] & ~down == 0:
            stack.append((j + 1, down | 1 << j))
    return out


@pytest.fixture(scope="session")
def ideal_walk_oracle():
    """(alg, principal, joinirr) -> (mask, S) pairs, gated leaf by leaf."""
    return _ideal_masks_gated


def _compact_basis_scan(spec):
    """Test-only oracle: the first ideal I whose open is not the union of
    U_<x> over all x in I, each union built from scratch (m x n); None when
    there is none."""
    lat = spec.lattice
    for i, imask in enumerate(lat.masks):
        union = 0
        for x in range(lat.algebra.n):
            if (imask >> x) & 1:
                union |= spec.opens[lat.principal[x]]
        if union != spec.opens[i]:
            return i
    return None


def _generator_counts_by_joins(lat):
    """Test-only oracle: the breadth-first search over
    ``IdealLattice.join`` of lattice indices, level t+1 every join of a
    level-t ideal with a principal ideal."""
    principal = set(lat.principal)
    counts = [-1] * len(lat)
    counts[lat.bottom] = 0
    level, t = principal, 1
    while level:
        fresh = [k for k in level if counts[k] < 0]
        for k in fresh:
            counts[k] = t
        level = {lat.join(k, p) for k in fresh for p in principal}
        t += 1
    return tuple(counts)


@pytest.fixture(scope="session")
def topology_oracles():
    """The compact-basis scan (spec -> index or None) and the generator
    counts by lattice joins (lat -> counts)."""
    return _compact_basis_scan, _generator_counts_by_joins


def _report_json_whole(reports, include_timing=True):
    """Test-only oracle: the JSON law report as one ``json.dumps`` call
    over the whole payload, every row's dict held at once."""
    import json

    from lalg import formats

    rows = [formats._report_payload(r, include_timing) for r in reports]
    return json.dumps({"schema": formats.REPORT_SCHEMA, "reports": rows}, separators=(",", ":"))


def _ideals_json_whole(lat):
    """Test-only oracle: the ``lalg ideals --json`` document with its three
    m x m tables built as lists and encoded by one ``json.dumps`` call, the
    joins by :meth:`IdealLattice.join` and the residuals by
    :meth:`IdealLattice.residual`, one per entry."""
    import json

    from lalg.ideals import labels_of

    alg, masks, m = lat.algebra, lat.masks, len(lat)
    payload = {
        "schema": 1,
        "algebra": alg.name,
        "ideals": [labels_of(alg, a) for a in masks],
        "meet": [[lat.index(a & b) for b in masks] for a in masks],
        "join": [[lat.join(i, j) for j in range(m)] for i in range(m)],
        "residuation": _residuation_table(lat),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


@pytest.fixture(scope="session")
def json_oracles():
    """The whole-document encodings: (reports, include_timing) -> the law
    report, and lattice -> the ``lalg ideals --json`` output."""
    return _report_json_whole, _ideals_json_whole
