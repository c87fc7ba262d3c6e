from dataclasses import replace
from itertools import combinations

import pytest

from lalg import ideals, laws, spectrum
from lalg.constructions import Fixture, PosetSpec, enumerate_all, poset_algebra
from lalg.core import structure_flags, validate
from lalg.errors import DistributivityFailure, NonUniqueAttachment
from lalg.ideals import close_under_rules, enumerate_ideals, labels_of, mask_of, quotient
from lalg.laws import _principal_primality, replay, run_law
from lalg.spectrum import (
    at_most_one_atom,
    attach_prime_ideal,
    check_frame_map,
    compact_basis_failure,
    point_closures,
    prime_elements,
    prime_ideals,
    prime_quotient_oracle,
    quasi_prime_elements,
    relative_spectrum,
    spatiality_check,
    spectrum_facts,
    topology_report,
)


def _point_label_sets(spec):
    lat = spec.lattice
    return {frozenset(labels_of(lat.algebra, lat.masks[p])) for p in spec.points}


def test_spectrum_b2(b2):
    spec = prime_ideals(enumerate_ideals(b2))
    assert _point_label_sets(spec) == {frozenset({"1"})}


def test_spectrum_diamond(diamond):
    spec = prime_ideals(enumerate_ideals(diamond))
    assert _point_label_sets(spec) == {frozenset({"1"})}


def test_spectrum_b2xb2(algebras):
    spec = prime_ideals(enumerate_ideals(algebras["B2xB2"]))
    assert _point_label_sets(spec) == {
        frozenset({"(1,1)", "(0,1)"}),
        frozenset({"(1,1)", "(1,0)"}),
    }


def test_dual_points_are_the_primes_of_both_definitions(corpus_to_five, prime_oracles):
    # the points read off the join-irreducibles against a scan of every
    # ideal with the residuation form and with the meet form, and the scans
    # against the tests on principal ideals that prime.definitions-agree
    # runs; the points are in join-irreducible order, the scans ascend
    by_residuation, by_meets = prime_oracles
    for alg in corpus_to_five:
        lat = enumerate_ideals(alg)
        forms = [
            {"residuation_form": by_residuation(lat, p), "meet_form": by_meets(lat, p)}
            for p in range(len(lat))
        ]
        assert forms == [_principal_primality(lat, p) for p in range(len(lat))], alg.name
        points = sorted(prime_ideals(lat).points)
        assert points == [p for p, form in enumerate(forms) if form["residuation_form"]], alg.name
        assert points == [p for p, form in enumerate(forms) if form["meet_form"]], alg.name


def test_the_definitions_law_builds_no_residuation_table(monkeypatch, fixture_map):
    # the principal forms read the element-wise residual, not the m^2
    # residuals of IdealLattice.residuals
    def unbuilt(lat):
        raise AssertionError(f"{lat.algebra.name}: residuation table built")

    monkeypatch.setattr(ideals.IdealLattice, "residuals", unbuilt)
    reports = laws.run_suite(list(fixture_map.values()), ["prime.definitions-agree"])
    assert len(reports) == len(fixture_map) and laws.all_pass(reports)


def test_dropped_dual_point_fails_the_definitions_law(monkeypatch, algebras):
    # drop the first point of the dual spectrum: the law must name that
    # ideal, with all three verdicts, in a witness that replays
    alg = algebras["B2xB2"]
    real = laws.prime_ideals

    def dropped_first(lat):
        spec = real(lat)
        return replace(spec, points=spec.points[1:])

    monkeypatch.setattr(laws, "prime_ideals", dropped_first)
    report = run_law("prime.definitions-agree", Fixture(alg.name, alg))
    assert report.verdict == "fail"
    lat = enumerate_ideals(alg)
    dropped = real(lat).points[0]
    assert report.instances == dropped + 1
    assert report.witness["ideal"] == ("(1,0)", "(1,1)")
    assert (
        report.witness["dual_form"],
        report.witness["residuation_form"],
        report.witness["meet_form"],
    ) == (False, True, True)
    assert "algebra_document" in report.witness
    assert replay(report).verdict == "fail"


def test_one_planted_residual_fails_the_definitions_law(monkeypatch, algebras):
    # a prime P of B2xB2 and one y outside it, in turn: <y>*P planted as X,
    # which is not inside P, turns only the residuation form of P; two
    # elements lie outside each point and their principal ideals differ, so
    # the law has to read the residual of every y
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    real = ideals.IdealLattice._residuation_mask
    for p in prime_ideals(lat).points:
        pmask = lat.masks[p]
        outside = [y for y in range(alg.n) if not (pmask >> y) & 1]
        assert len({lat.principal[y] for y in outside}) == len(outside) == 2
        for y in outside:
            planted = lat.masks[lat.principal[y]], pmask

            def residual(self, imask, jmask, planted=planted):
                return alg.full_mask if (imask, jmask) == planted else real(self, imask, jmask)

            monkeypatch.setattr(ideals.IdealLattice, "_residuation_mask", residual)
            report = run_law("prime.definitions-agree", Fixture(alg.name, alg))
            assert (report.verdict, report.instances) == ("fail", p + 1), (p, y)
            assert report.witness["ideal"] == labels_of(alg, pmask)
            assert (
                report.witness["dual_form"],
                report.witness["residuation_form"],
                report.witness["meet_form"],
            ) == (True, False, True)


def test_spectra_of_sub_lattices_build_no_tables(monkeypatch, algebras):
    # prime_ideals reads no table; relative_spectrum and prime_quotient_oracle
    # read the spectra of sub-algebras and quotients off their principal
    # masks and build no lattice, and relative_spectrum reads I*P and
    # I*(Q n I) as single residuals, so X's m^2 residuals are never built
    def unbuilt(lat):
        raise AssertionError(f"{lat.algebra.name}: residuation table built")

    monkeypatch.setattr(ideals.IdealLattice, "residuals", unbuilt)
    built = []
    real = ideals.IdealLattice.__init__
    monkeypatch.setattr(ideals.IdealLattice, "__init__", lambda self, a, *args: built.append(a) or real(self, a, *args))
    for name in ("B2xB2", "chain3", "omega3", "diamond", "omega5"):
        alg = algebras[name]
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        facts = {}
        for k in range(len(lat)):
            relative_spectrum(spec, k, facts)
        prime_quotient_oracle(spec, facts)
        assert len(facts) > 1, name
        assert built == [alg], name
        built.clear()


def test_topology_report_builds_no_tables(monkeypatch, algebras):
    # the closures, the irreducibility test and the generator search read
    # the opens and the down-sets only
    def unbuilt(lat):
        raise AssertionError(f"{lat.algebra.name}: residuation table built")

    monkeypatch.setattr(ideals.IdealLattice, "residuals", unbuilt)
    for name in ("B2xB2", "chain3", "omega3", "diamondxB2", "omega5"):
        lat = enumerate_ideals(algebras[name])
        topology_report(prime_ideals(lat))


def test_spectrum_sizes_match_fixtures(algebras, fixture_map):
    for name, alg in algebras.items():
        expected = fixture_map[name].expected.get("spectrum")
        if expected is not None:
            spec = prime_ideals(enumerate_ideals(alg))
            assert spec.point_count == expected, name


def test_topology_reports(fixture_map):
    for fixture in fixture_map.values():
        spec = prime_ideals(enumerate_ideals(fixture.algebra))
        rep = topology_report(spec)
        assert rep.t0 and rep.sober
        assert run_law("spectrum.compact-basis", fixture).verdict == "pass"


def test_point_closures_are_superset_sets(algebras):
    # closure of {P}, read off the opens, is exactly the primes containing P
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        closures = point_closures(spec)
        for pos, p in enumerate(spec.points):
            expected = mask_of(q for q, other in enumerate(spec.points) if lat.leq(p, other))
            assert closures[pos] == expected, alg.name


def _closure_by_scan(spec, position):
    """Test-only oracle: q is in cl(p) when every open that holds q holds p."""
    opens = set(spec.opens)
    return mask_of(
        q
        for q in range(spec.point_count)
        if all(not (u >> q) & 1 or (u >> position) & 1 for u in opens)
    )


def _topology_by_pairs(spec):
    """Test-only oracle for (t0, sober, irreducible closed count, closure
    bijection): T0 compares every pair of points on every open, and a closed
    set is irreducible when no two closed sets cover it with both missing a
    part of it."""
    npts = spec.point_count
    t0 = all(
        any((u >> a) & 1 != (u >> b) & 1 for u in spec.opens)
        for a in range(npts)
        for b in range(a + 1, npts)
    )
    closed = sorted({spec.all_points_mask & ~u for u in spec.opens})
    irr = [
        a
        for a in closed
        if a and not any(a & ~(b | c) == 0 and a & ~b and a & ~c for b in closed for c in closed)
    ]
    closures = [_closure_by_scan(spec, p) for p in range(npts)]
    sober = all(closures.count(a) == 1 for a in irr)
    bijection = sober and sorted(closures) == sorted(irr) and len(set(closures)) == npts
    return t0, sober, len(irr), bijection


def _verdicts(rep):
    # the report has no bijection verdict of its own: every point closure is
    # irreducible, so sobriety already makes p -> cl(p) that bijection
    return rep.t0, rep.sober, rep.irreducible_closed_count, rep.sober


def test_topology_report_matches_the_pairwise_oracles(corpus_to_five):
    # the oracle's closure bijection, checked pairwise, equals ``sober``
    for alg in corpus_to_five:
        spec = prime_ideals(enumerate_ideals(alg))
        closures = tuple(_closure_by_scan(spec, p) for p in range(spec.point_count))
        assert point_closures(spec) == closures, alg.name
        assert _verdicts(topology_report(spec)) == _topology_by_pairs(spec), alg.name


def test_indistinguishable_points_fail_t0_and_sobriety(monkeypatch, algebras):
    # B2xB2 with both points given identical opens: each open holds both
    # points or neither, so the space is not T0, and its one irreducible
    # closed set has two generic points
    alg = algebras["B2xB2"]
    real = laws.prime_ideals

    def merged(lat):
        spec = real(lat)
        return replace(spec, opens=tuple(spec.all_points_mask if u else 0 for u in spec.opens))

    spec = merged(enumerate_ideals(alg))
    rep = topology_report(spec)
    assert (rep.t0, rep.sober) == (False, False)
    assert _verdicts(rep) == _topology_by_pairs(spec) == (False, False, 1, False)
    assert rep.witnesses == (
        "points {(1,0),(1,1)} and {(0,1),(1,1)} are topologically indistinguishable",
        "irreducible closed set with 2 generic points",
    )
    monkeypatch.setattr(laws, "prime_ideals", merged)
    assert run_law("spectrum.t0-sober", Fixture(alg.name, alg)).verdict == "fail"


def test_reversed_points_fail_the_frame_law(monkeypatch, chain3):
    # the points reversed and the opens kept: the opens still form a frame
    # of sets, but bit j no longer says that the j-th point misses the ideal
    real = laws.prime_ideals

    def reversed_points(lat):
        spec = real(lat)
        return replace(spec, points=spec.points[::-1])

    monkeypatch.setattr(laws, "prime_ideals", reversed_points)
    report = run_law("spectrum.frame-bijection", Fixture("chain3", chain3))
    assert report.verdict == "fail"
    assert report.witness["problem"] == "U_I is not the set of primes P with I not inside P"


def test_each_point_that_is_not_meet_prime_fails_the_frame_law(monkeypatch, algebras):
    # the principal meet form planted false on one point of omega5 at a time:
    # U no longer preserves the meets at that point, and the law must say
    # so whichever point it is, after the m re-read opens and the points
    # before it
    alg = algebras["omega5"]
    lat = enumerate_ideals(alg)
    points = prime_ideals(lat).points
    real = laws._principal_primality
    for a, planted in enumerate(points):

        def primality(lat, p, planted=planted):
            return dict(real(lat, p), meet_form=False) if p == planted else real(lat, p)

        monkeypatch.setattr(laws, "_principal_primality", primality)
        report = run_law("spectrum.frame-bijection", Fixture(alg.name, alg))
        assert (report.verdict, report.instances) == ("fail", len(lat) + a + 1), a
        assert report.witness["problem"] == "U_(I n J) != U_I n U_J"


def test_a_failed_certificate_fails_the_frame_law(monkeypatch, algebras):
    # I -> S_I preserves joins exactly when the distributivity certificate
    # holds, so the frame law reads the certificate's outcome; planted as a
    # failure, the join half fails after every point was decided
    alg = algebras["omega5"]
    lat = enumerate_ideals(alg)

    def failed(*args):
        raise DistributivityFailure("planted", witness={})

    monkeypatch.setattr(laws, "certify_distributive", failed)
    report = run_law("spectrum.frame-bijection", Fixture(alg.name, alg))
    assert (report.verdict, report.instances) == ("fail", len(lat) + prime_ideals(lat).point_count)
    assert report.witness["problem"] == "U_(I v J) != U_I u U_J"
    assert run_law("ideal-lattice.distributive", Fixture(alg.name, alg)).verdict == "fail"


def test_empty_spectrum_is_vacuously_fine(algebras):
    spec = prime_ideals(enumerate_ideals(algebras["unit"]))
    assert spec.point_count == 0
    rep = topology_report(spec)
    assert rep.t0 and rep.sober


def test_the_lower_neighbour_walk_names_a_planted_open(algebras, topology_oracles):
    # the open of one ideal of omega5 at a time replaced by its complement:
    # the walk names that ideal, as the m x n scan does.  The union over the
    # bottom, and over the atom <x> = {1,x}, reads the planted open only off
    # itself, so there both name the first ideal above that reads it too
    basis_scan, _ = topology_oracles
    spec = prime_ideals(enumerate_ideals(algebras["omega5"]))
    lat = spec.lattice
    assert compact_basis_failure(spec) is None
    unseen = {lat.bottom, lat.index(lat.masks[lat.bottom] | 1 << lat.algebra.index_of("x"))}
    for i in range(len(lat)):
        opens = list(spec.opens)
        opens[i] ^= spec.all_points_mask
        planted = replace(spec, opens=tuple(opens))
        found = compact_basis_failure(planted)
        assert found == basis_scan(planted), i
        if i in unseen:
            assert found == min(k for k in range(i + 1, len(lat)) if lat.leq(i, k)), i
        else:
            assert found == i


def test_a_generator_union_that_no_ideal_has_raises(algebras, topology_oracles):
    # planted: omega3's full ideal dropped from the down-set look-up.  It
    # needs two generators, so the search meets its down-set as a union and
    # hands the miss to IdealLattice.join, as the search over joins does
    _, counts_by_joins = topology_oracles
    for route in (spectrum._minimal_generator_counts, counts_by_joins):
        lat = enumerate_ideals(algebras["omega3"])
        lat.by_downset = {d: k for k, d in enumerate(lat.downsets) if k != lat.top}
        with pytest.raises(DistributivityFailure, match="no ideal has S_I u S_J as its down-set"):
            route(lat)


def test_minimal_generator_counts(omega3):
    lat = enumerate_ideals(omega3)
    rep = topology_report(prime_ideals(lat))
    by_mask = dict(zip(lat.masks, rep.min_generators))
    bottom = 1 << omega3.unit
    assert by_mask[bottom] == 0
    full_needs = by_mask[omega3.full_mask]
    assert full_needs == 2  # y plus the deepest chain element


def test_minimal_generators_b2xb2(algebras):
    # the full ideal is generated by (0,0) alone, though two join-irreducible
    # ideals (the atoms) lie maximal below it
    lat = enumerate_ideals(algebras["B2xB2"])
    assert topology_report(prime_ideals(lat)).min_generators == (0, 1, 1, 1)
    assert len(lat.join_irreducibles) == 2


def _smallest_generating_subset(alg, mask):
    """Oracle: the least k such that some k members of the ideal generate it."""
    members = [x for x in range(alg.n) if (mask >> x) & 1]
    for k in range(len(members) + 1):
        for gens in combinations(members, k):
            if close_under_rules(alg, sum(1 << x for x in gens)) == mask:
                return k
    raise AssertionError("an ideal generates itself")


def test_minimal_generators_match_the_subset_oracle(algebras):
    corpus = list(algebras.values()) + [a for n in (1, 2, 3, 4) for a in enumerate_all(n)]
    for alg in corpus:
        lat = enumerate_ideals(alg)
        counts = topology_report(prime_ideals(lat)).min_generators
        assert counts == tuple(_smallest_generating_subset(alg, m) for m in lat.masks), alg.name


def test_prime_elements_poset_algebras(chain3, omega3):
    # in an implication algebra of a poset every non-top element qualifies
    for alg in (chain3, omega3):
        assert set(prime_elements(alg)) == set(range(alg.n)) - {alg.unit}


def test_prime_elements_diamond_paper_faithful(diamond):
    # p and q are prime as the source example states; the bottom also
    # satisfies the definition since every x has x*0 = 0
    primes = {diamond.label(i) for i in prime_elements(diamond)}
    assert {"p", "q"} <= primes
    assert primes == {"p", "q", "0"}


def test_prime_elements_b2(b2):
    assert [b2.label(i) for i in prime_elements(b2)] == ["0"]


def test_quasi_primes(b2, diamond, chain3):
    assert {b2.label(i) for i in quasi_prime_elements(enumerate_ideals(b2))} == {"0"}
    assert {
        diamond.label(i) for i in quasi_prime_elements(enumerate_ideals(diamond))
    } == {"p", "q", "0"}
    assert {
        chain3.label(i) for i in quasi_prime_elements(enumerate_ideals(chain3))
    } == {"a", "b"}


def _quasi_primes_by_pairs(alg, lat):
    """Test-only oracle: q < 1 with q in I v J only when q in I or q in J,
    over every pair of ideals and their joins."""
    out = []
    m = len(lat)
    for q in range(alg.n):
        if q == alg.unit:
            continue
        if all(
            not (lat.masks[lat.join(i, j)] >> q) & 1
            or (lat.masks[i] >> q) & 1
            or (lat.masks[j] >> q) & 1
            for i in range(m)
            for j in range(i, m)
        ):
            out.append(q)
    return tuple(out)


def test_quasi_primes_by_one_join_match_the_pair_scan(corpus_to_five):
    for alg in corpus_to_five:
        lat = enumerate_ideals(alg)
        assert quasi_prime_elements(lat) == _quasi_primes_by_pairs(alg, lat), alg.name


def test_primes_subset_quasi_primes(algebras, small_corpus):
    for alg in list(algebras.values()) + small_corpus:
        lat = enumerate_ideals(alg)
        assert set(prime_elements(alg)) <= set(quasi_prime_elements(lat))


def _attach(lat, x):
    return attach_prime_ideal(prime_ideals(lat), x, quasi_prime_elements(lat))


def test_maximal_avoiders_match_the_pair_scan(corpus_to_five):
    # the descending pass against every pair of avoiders
    for alg in corpus_to_five:
        lat = enumerate_ideals(alg)
        spec, quasi = prime_ideals(lat), quasi_prime_elements(lat)
        for x in range(alg.n):
            if x == alg.unit:
                continue
            avoiders = [k for k in range(len(lat)) if not (lat.masks[k] >> x) & 1]
            expected = [k for k in avoiders if not any(o != k and lat.leq(k, o) for o in avoiders)]
            found = attach_prime_ideal(spec, x, quasi)
            assert list(found) == expected, alg.name


def test_attachment_diamond(diamond):
    lat = enumerate_ideals(diamond)
    p, q = diamond.index_of("p"), diamond.index_of("q")
    (ideal_p,) = _attach(lat, p)
    (ideal_q,) = _attach(lat, q)
    assert ideal_p == ideal_q == lat.bottom


def test_attachment_b2xb2(algebras):
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    (ideal,) = _attach(lat, alg.index_of("(0,1)"))
    assert labels_of(alg, lat.masks[ideal]) == ("(1,0)", "(1,1)")
    # (0,0) is not quasi-prime: both atoms avoid it maximally
    several = _attach(lat, alg.index_of("(0,0)"))
    assert len(several) == 2


def test_attachment_b2_zero(b2):
    lat = enumerate_ideals(b2)
    (ideal,) = _attach(lat, b2.index_of("0"))
    assert labels_of(b2, lat.masks[ideal]) == ("1",)


def test_attachment_unit_rejected(b2):
    with pytest.raises(ValueError):
        _attach(enumerate_ideals(b2), b2.unit)


def test_non_unique_attachment_guard_fires(algebras):
    # several maximal avoiders are legal for a non-quasi-prime element; if
    # the element were quasi-prime that would falsify uniqueness, so force
    # the classification and watch the guard trip
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    x = alg.index_of("(0,0)")
    with pytest.raises(NonUniqueAttachment):
        attach_prime_ideal(prime_ideals(lat), x, (x,))


def test_every_diamond_element_attaches_to_one_prime(diamond):
    lat = enumerate_ideals(diamond)
    for x in range(diamond.n):
        if x != diamond.unit:
            assert len(_attach(lat, x)) == 1, diamond.label(x)
    assert set(prime_elements(diamond)) <= set(quasi_prime_elements(lat))


def test_subdirectly_irreducible(b2, diamond, algebras, small_corpus, subdirectly_irreducible):
    # the monolith scan (the test-side oracle) and the atom test of the law
    for alg, expected in ((b2, True), (diamond, True), (algebras["B2xB2"], False), (algebras["unit"], True)):
        assert subdirectly_irreducible(enumerate_ideals(alg)) == expected, alg.name
        assert at_most_one_atom(alg, {}) == expected, alg.name
    # the monolith criterion agrees with the pairwise definition everywhere
    for alg in small_corpus + list(algebras.values()):
        lat = enumerate_ideals(alg)
        bottom = lat.masks[lat.bottom]
        nontrivial = [m for m in lat.masks if m != bottom]
        pairwise = not any(
            a & b == bottom for a in nontrivial for b in nontrivial
        )
        assert subdirectly_irreducible(lat) == pairwise


def test_point_masks_and_the_atom_test_match_the_oracles(
    corpus_to_five, magma, absorption_magma, prime_oracles, subdirectly_irreducible
):
    # the two routes that build no lattice against the scans over a built
    # one: the point masks, in (popcount, mask) order, are the meet-prime
    # ideals, and "X/P has at most one atom" is the monolith scan of the
    # lattice of X/P, on every proper quotient; the magmas are not L-algebras
    _, by_meets = prime_oracles
    for alg in corpus_to_five + [magma, absorption_magma]:
        lat = enumerate_ideals(alg)
        meet_primes = tuple(mask for p, mask in enumerate(lat.masks) if by_meets(lat, p))
        assert spectrum_facts(alg, {})[1] == meet_primes, alg.name
        for p in lat.proper_indices():
            quot = quotient(alg, lat.masks[p]).algebra
            assert at_most_one_atom(quot, {}) == subdirectly_irreducible(enumerate_ideals(quot)), quot.name


def test_a_candidate_that_is_no_ideal_fails_the_gate(monkeypatch, algebras, tmp_path, capsys):
    # each candidate P_j passes is_ideal before it is a point; planted as
    # rejected for one join-irreducible j of omega3 at a time, prime_ideals
    # raises naming j, and lalg spectrum reports a falsification
    from lalg.cli import main
    from lalg.formats import save_algebra

    alg = algebras["omega3"]
    lat = enumerate_ideals(alg)
    spec = prime_ideals(lat)
    path = tmp_path / "omega3.lalg"
    save_algebra(alg, path)
    real = ideals.is_ideal
    assert len(lat.join_irreducibles) == spec.point_count > 1
    for jmask, point in zip(lat.join_irreducibles, spec.points):
        planted = lat.masks[point]
        monkeypatch.setattr(ideals, "is_ideal", lambda a, mask, planted=planted: mask != planted and real(a, mask))
        with pytest.raises(DistributivityFailure) as caught:
            prime_ideals(lat)
        assert caught.value.witness == {"algebra": alg.name, "join_irreducible": labels_of(alg, jmask)}
        assert main(["spectrum", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"falsification: {alg.name}: no ideal has the join-irreducibles not above j as its down-set\n"


def test_prime_quotient_oracle(algebras, small_corpus):
    for alg in list(algebras.values()) + small_corpus:
        lat = enumerate_ideals(alg)
        assert prime_quotient_oracle(prime_ideals(lat), {}) is None, alg.name


def test_relative_spectrum_b2xb2(algebras):
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    left = lat.index(mask_of([alg.index_of("(1,1)"), alg.index_of("(0,1)")]))
    spec = prime_ideals(lat)
    assert relative_spectrum(spec, left, {}) == (1, 1)
    assert spec.point_count == 2


def test_relative_spectrum_trivial_ideals(diamond):
    lat = enumerate_ideals(diamond)
    spec = prime_ideals(lat)
    assert relative_spectrum(spec, lat.bottom, {}) == (0, spec.point_count)
    assert relative_spectrum(spec, lat.top, {}) == (spec.point_count, 0)


def test_relative_spectrum_all_fixture_ideals(algebras):
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        for k in range(len(lat)):
            assert sum(relative_spectrum(spec, k, {})) == spec.point_count


def test_relative_spectrum_visits_the_points_of_u_i_in_ascending_order(monkeypatch, algebras):
    # on omega5 the points of U_I for the ideal at index 4 are, in
    # join-irreducible order, [0, 9, 2]; the check of U_I against Spec I
    # looks up Q n I for each point Q, and must do so by ascending lattice
    # index, so that the first failure it names does not depend on that order
    lat = enumerate_ideals(algebras["omega5"])
    spec = prime_ideals(lat)
    i = 4
    u_points = [p for j, p in enumerate(spec.points) if (spec.opens[i] >> j) & 1]
    assert u_points == [0, 9, 2]
    looked_up = []
    real = lat._residuation_mask
    monkeypatch.setattr(lat, "_residuation_mask", lambda imask, jmask: looked_up.append(jmask) or real(imask, jmask))
    relative_spectrum(spec, i, {})
    expected = [lat.masks[q] & lat.masks[i] for q in sorted(u_points)]
    assert looked_up[-len(expected):] == expected


def test_relative_spectrum_counterexample_at_four_elements():
    # the subalgebra {1,b,c} has the prime ideal {1,c}, which fails
    # absorption in the ambient algebra (a*c = b); the correspondence with
    # U_I breaks and must be surfaced, not patched
    from lalg.errors import BijectionFailure

    alg = validate(
        [
            [0, 1, 2, 3],
            [0, 0, 0, 2],
            [0, 1, 0, 3],
            [0, 1, 2, 0],
        ],
        0,
        labels=("1", "a", "b", "c"),
        name="boundary",
    )
    lat = enumerate_ideals(alg)
    ideal = lat.index(mask_of([0, 2, 3]))
    with pytest.raises(BijectionFailure):
        relative_spectrum(prime_ideals(lat), ideal, {})


def _principal_opens(alg):
    """U_<x> for every element x, and the set of all opens."""
    lat = enumerate_ideals(alg)
    spec = prime_ideals(lat)
    return [spec.opens[lat.principal[x]] for x in range(alg.n)], set(spec.opens)


def _point_map_row(alg):
    report = run_law("point-map.brouwerian", Fixture(alg.name, alg))
    assert report.verdict == "pass"
    return report.detail


def test_point_map_b2_bijective(b2):
    opens, every = _principal_opens(b2)
    assert len(set(opens)) == 2 and set(opens) == every
    assert structure_flags(b2).brouwerian
    assert _point_map_row(b2) == "injective, Brouwerian"


def test_point_map_diamond_surjective_not_injective(diamond):
    opens, every = _principal_opens(diamond)
    assert set(opens) == every and len(set(opens)) < diamond.n
    p, q = diamond.index_of("p"), diamond.index_of("q")
    assert opens[p] == opens[q]
    assert not structure_flags(diamond).brouwerian
    assert _point_map_row(diamond) == "not injective, not Brouwerian"


def test_point_map_chain3_three_to_three(chain3):
    opens, every = _principal_opens(chain3)
    assert len(set(opens)) == 3 == len(every) and set(opens) == every
    assert _point_map_row(chain3) == "injective, Brouwerian"


def test_spatiality_and_frame(algebras, small_corpus, frame_facts):
    for alg in list(algebras.values()) + small_corpus:
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        spatiality_check(spec)
        instances, problem = check_frame_map(spec, *frame_facts(lat))
        assert problem is None
        assert instances == len(lat) + spec.point_count


def test_spec_counts_of_omega_fixtures(omega3, algebras):
    # implication algebra of a poset: one point per non-top element
    spec3 = prime_ideals(enumerate_ideals(omega3))
    assert spec3.point_count == omega3.n - 1
    omega5 = algebras["omega5"]
    spec5 = prime_ideals(enumerate_ideals(omega5))
    assert spec5.point_count == omega5.n - 1


def test_poset_algebra_all_elements_prime_even_on_diamond_poset():
    # the poset-shaped diamond with x*y := y is a different algebra from
    # the diamond fixture and keeps its bottom prime
    alg = poset_algebra(
        PosetSpec(
            elements=("1", "p", "q", "0"),
            covers=(("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")),
            top="1",
        )
    )
    assert set(prime_elements(alg)) == {1, 2, 3}
