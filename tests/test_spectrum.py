import pytest

from lalg.constructions import PosetSpec, poset_algebra
from lalg.core import validate
from lalg.errors import NonUniqueAttachment
from lalg.ideals import enumerate_ideals
from lalg.spectrum import (
    attach_prime_ideal,
    check_frame_map,
    prime_element_report,
    prime_elements,
    prime_ideals,
    prime_quotient_oracle,
    principal_open_map,
    quasi_prime_elements,
    relative_spectrum,
    spatiality_check,
    subdirectly_irreducible,
    topology_report,
)


def _point_label_sets(spec):
    return {frozenset(spec.point_ideal(k).label_set()) for k in range(spec.point_count)}


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


def test_spectrum_sizes_match_fixtures(algebras, fixture_map):
    for name, alg in algebras.items():
        expected = fixture_map[name].expected.get("spectrum")
        if expected is not None:
            spec = prime_ideals(enumerate_ideals(alg))
            assert spec.point_count == expected, name


def test_topology_reports(algebras):
    for alg in algebras.values():
        spec = prime_ideals(enumerate_ideals(alg))
        rep = topology_report(spec)
        assert rep.t0 and rep.sober and rep.closure_is_point_bijection
        assert rep.quasi_compact_opens and rep.generalized_spectral


def test_point_closures_are_superset_sets(algebras):
    # closure of {P}, read off the opens, is exactly the primes containing P
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        for pos in range(spec.point_count):
            expected = 0
            for q in range(spec.point_count):
                if lat.leq(spec.points[pos], spec.points[q]):
                    expected |= 1 << q
            assert spec.closure_of_point(pos) == expected


def test_empty_spectrum_is_vacuously_fine(algebras):
    spec = prime_ideals(enumerate_ideals(algebras["unit"]))
    assert spec.point_count == 0
    rep = topology_report(spec)
    assert rep.t0 and rep.sober


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
    assert {b2.label(i) for i in quasi_prime_elements(b2, enumerate_ideals(b2))} == {"0"}
    assert {
        diamond.label(i) for i in quasi_prime_elements(diamond, enumerate_ideals(diamond))
    } == {"p", "q", "0"}
    assert {
        chain3.label(i) for i in quasi_prime_elements(chain3, enumerate_ideals(chain3))
    } == {"a", "b"}


def test_primes_subset_quasi_primes(algebras, small_corpus):
    for alg in list(algebras.values()) + small_corpus:
        lat = enumerate_ideals(alg)
        assert set(prime_elements(alg)) <= set(quasi_prime_elements(alg, lat))


def test_attachment_diamond(diamond):
    lat = enumerate_ideals(diamond)
    p, q = diamond.index_of("p"), diamond.index_of("q")
    (ideal_p,) = attach_prime_ideal(diamond, lat, p)
    (ideal_q,) = attach_prime_ideal(diamond, lat, q)
    assert ideal_p.label_set() == ("1",)
    assert ideal_q.label_set() == ("1",)


def test_attachment_b2xb2(algebras):
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    (ideal,) = attach_prime_ideal(alg, lat, alg.index_of("(0,1)"))
    assert set(ideal.label_set()) == {"(1,1)", "(1,0)"}
    # (0,0) is not quasi-prime: both atoms avoid it maximally
    several = attach_prime_ideal(alg, lat, alg.index_of("(0,0)"))
    assert len(several) == 2


def test_attachment_b2_zero(b2):
    (ideal,) = attach_prime_ideal(b2, enumerate_ideals(b2), b2.index_of("0"))
    assert ideal.label_set() == ("1",)


def test_attachment_unit_rejected(b2):
    with pytest.raises(ValueError):
        attach_prime_ideal(b2, enumerate_ideals(b2), b2.unit)


def test_non_unique_attachment_guard_fires(monkeypatch, algebras):
    # several maximal avoiders are legal for a non-quasi-prime element; if
    # the element were quasi-prime that would falsify uniqueness, so force
    # the classification and watch the guard trip
    import lalg.spectrum as spectrum_module

    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    x = alg.index_of("(0,0)")
    monkeypatch.setattr(
        spectrum_module, "quasi_prime_elements", lambda a, l: (x,)
    )
    with pytest.raises(NonUniqueAttachment):
        attach_prime_ideal(alg, lat, x)


def test_prime_element_report(diamond):
    lat = enumerate_ideals(diamond)
    report = prime_element_report(diamond, lat)
    assert all(att.unique for att in report.attachments)
    assert set(report.primes) <= set(report.quasi_primes)


def test_subdirectly_irreducible(b2, diamond, algebras, small_corpus):
    assert subdirectly_irreducible(b2, enumerate_ideals(b2))
    assert subdirectly_irreducible(diamond, enumerate_ideals(diamond))
    assert not subdirectly_irreducible(
        algebras["B2xB2"], enumerate_ideals(algebras["B2xB2"])
    )
    assert subdirectly_irreducible(algebras["unit"], enumerate_ideals(algebras["unit"]))
    # the monolith criterion agrees with the pairwise definition everywhere
    for alg in small_corpus + list(algebras.values()):
        lat = enumerate_ideals(alg)
        bottom = lat.masks[lat.bottom]
        nontrivial = [m for m in lat.masks if m != bottom]
        pairwise = not any(
            a & b == bottom for a in nontrivial for b in nontrivial
        )
        assert subdirectly_irreducible(alg, lat) == pairwise


def test_prime_quotient_oracle(algebras, small_corpus):
    for alg in list(algebras.values()) + small_corpus:
        lat = enumerate_ideals(alg)
        for row in prime_quotient_oracle(alg, lat):
            assert row.consistent


def test_relative_spectrum_b2xb2(algebras):
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    left = next(
        i for i in lat.ideals if set(i.label_set()) == {"(1,1)", "(0,1)"}
    )
    report = relative_spectrum(alg, lat, left)
    assert report.spec_i_size == 1
    assert report.spec_quotient_size == 1
    assert report.spec_x_size == 2
    assert report.counts_add_up


def test_relative_spectrum_trivial_ideals(diamond):
    lat = enumerate_ideals(diamond)
    bottom = relative_spectrum(diamond, lat, lat.ideals[lat.bottom])
    assert bottom.spec_i_size == 0
    full = relative_spectrum(diamond, lat, lat.ideals[lat.top])
    assert full.spec_i_size == full.spec_x_size


def test_relative_spectrum_all_fixture_ideals(algebras):
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        for ideal in lat.ideals:
            report = relative_spectrum(alg, lat, ideal)
            assert report.counts_add_up


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
    ideal = next(i for i in lat.ideals if set(i.label_set()) == {"1", "b", "c"})
    with pytest.raises(BijectionFailure):
        relative_spectrum(alg, lat, ideal)


def test_point_map_b2_bijective(b2):
    rep = principal_open_map(b2, enumerate_ideals(b2))
    assert rep.bijective and rep.brouwerian
    assert len(set(rep.open_of_element)) == 2


def test_point_map_diamond_surjective_not_injective(diamond):
    lat = enumerate_ideals(diamond)
    rep = principal_open_map(diamond, lat)
    assert rep.surjective and not rep.injective and not rep.brouwerian
    p, q = diamond.index_of("p"), diamond.index_of("q")
    assert rep.open_of_element[p] == rep.open_of_element[q]
    assert rep.detail == "not injective, not Brouwerian"


def test_point_map_chain3_three_to_three(chain3):
    lat = enumerate_ideals(chain3)
    rep = principal_open_map(chain3, lat)
    assert rep.bijective and rep.brouwerian
    assert len(set(rep.open_of_element)) == 3 == len(lat)


def test_spatiality_and_frame(algebras, small_corpus):
    for alg in list(algebras.values()) + small_corpus:
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        assert spatiality_check(lat, spec)
        instances, problem = check_frame_map(spec)
        assert problem is None


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
