import pytest

from lalg import ideals, laws, spectrum
from lalg.constructions import Fixture, PosetSpec, enumerate_all, poset_algebra, product_pairs
from lalg.core import FiniteLAlgebra, subalgebra
from lalg.errors import (
    DistributivityFailure,
    JoinWitnessMismatch,
    ResiduationNotGreatest,
)
from lalg.ideals import (
    IdealLattice,
    certify_distributive,
    close_under_rules,
    congruence_of,
    enumerate_ideals,
    is_ideal,
    labels_of,
    mask_of,
    quotient,
    witness_joins,
)
from lalg.laws import run_law, run_suite
from lalg.spectrum import prime_ideals, prime_quotient_oracle, relative_spectrum, spectrum_facts


def _labels(alg, mask):
    return {alg.label(i) for i in range(alg.n) if (mask >> i) & 1}


def test_generate_empty_seed_gives_bottom(algebras):
    for alg in algebras.values():
        assert close_under_rules(alg, 0) == 1 << alg.unit


def test_generate_diamond_p_is_everything(diamond):
    p, q = diamond.index_of("p"), diamond.index_of("q")
    assert close_under_rules(diamond, 1 << p) == diamond.full_mask
    assert close_under_rules(diamond, 1 << q) == diamond.full_mask


def test_generate_chain3(chain3):
    a = chain3.index_of("a")
    assert _labels(chain3, close_under_rules(chain3, 1 << a)) == {"1", "a"}


def test_generate_monotone(algebras):
    for alg in algebras.values():
        full = alg.full_mask
        for s1 in range(min(full + 1, 64)):
            s2 = s1 | (s1 << 1) & full
            lhs = close_under_rules(alg, s1)
            rhs = close_under_rules(alg, s1 | s2)
            assert lhs & ~rhs == 0


def test_ideal_counts(algebras, fixture_map):
    for name, alg in algebras.items():
        expected = fixture_map[name].expected.get("ideals")
        if expected is not None:
            assert len(enumerate_ideals(alg)) == expected, name


def _is_ideal_by_rules(alg, mask):
    """Oracle: the unit, then detachment, lifting and absorption on every
    pair (x, y) with x in the subset."""
    if not (mask >> alg.unit) & 1:
        return False
    t = alg.table
    for x in range(alg.n):
        if not (mask >> x) & 1:
            continue
        row = t[x]
        for y in range(alg.n):
            xy = row[y]
            if (mask >> xy) & 1 and not (mask >> y) & 1:
                return False
            if not (mask >> t[xy][y]) & 1:
                return False
            if not (mask >> t[y][x]) & 1 or not (mask >> t[y][xy]) & 1:
                return False
    return True


def test_is_ideal_matches_the_rule_oracle_on_every_mask(corpus_to_five, magma, absorption_magma):
    # one kernel mask test and one row scan per member against the four
    # checks on every pair, on every subset; the magmas are not L-algebras
    for alg in corpus_to_five + [magma, absorption_magma]:
        for mask in range(1 << alg.n):
            assert is_ideal(alg, mask) == _is_ideal_by_rules(alg, mask), (alg.name, mask)


def test_second_absorption_term_is_applied(absorption_magma):
    # on the L-algebras with n <= 5 the term y*(x*y) never adds anything
    # the other rules miss; on this table it is what leaves {1, a}
    alg = absorption_magma
    assert close_under_rules(alg, 1 << alg.index_of("a")) == alg.full_mask
    assert not is_ideal(alg, mask_of([alg.unit, alg.index_of("a")]))


def _ideal_masks_by_filter(alg):
    """Oracle: every unit-containing subset that passes ``_is_ideal_by_rules``."""
    assert alg.n <= 12, "the subset filter tries 2^(n-1) candidates"
    unit_bit = 1 << alg.unit
    return sorted(
        m for m in range(1 << alg.n) if m & unit_bit and _is_ideal_by_rules(alg, m)
    )


def _closure_join(alg, imask, jmask):
    """Oracle: the join as the ideal generated by the union."""
    return close_under_rules(alg, imask | jmask)


def _greatest_residual(lat, i, j):
    """Oracle: scan the lattice for the greatest K with K n I <= J."""
    outside = lat.masks[i] & ~lat.masks[j]
    fits = [k for k, m in enumerate(lat.masks) if m & outside == 0]
    (greatest,) = [k for k in fits if all(lat.leq(f, k) for f in fits)]
    return greatest


def _distributive_by_triples(masks, joins):
    """Oracle: (I v J) n K = (I n K) v (J n K) on every triple, with the
    joins read off ``joins`` (indices into ``masks``)."""
    index = {mask: k for k, mask in enumerate(masks)}
    m = len(masks)
    for i in range(m):
        for j in range(i, m):
            left_join = masks[joins[i][j]]
            for k in range(m):
                meet_i = index[masks[i] & masks[k]]
                meet_j = index[masks[j] & masks[k]]
                if left_join & masks[k] != masks[joins[meet_i][meet_j]]:
                    return False
    return True


def _residuation_by_triples(lat, table):
    """Oracle: K n I <= J exactly when K <= I*J, on every triple, I*J read
    off ``table``."""
    m = len(lat)
    return all(
        (lat.masks[k] & lat.masks[i] & ~lat.masks[j] == 0)
        == lat.leq(k, table[i][j])
        for k in range(m)
        for i in range(m)
        for j in range(m)
    )


def test_join_irreducible_route_matches_subset_filter(corpus_to_five):
    # the ideals against the subset filter, and the joins and the residuation
    # table read off the join-irreducibles against the closure join and the
    # greatest-ideal scan
    for alg in corpus_to_five:
        lat = enumerate_ideals(alg)
        assert sorted(lat.masks) == _ideal_masks_by_filter(alg), alg.name
        m = len(lat)
        for i in range(m):
            for j in range(m):
                closed = _closure_join(alg, lat.masks[i], lat.masks[j])
                assert lat.masks[lat.join(i, j)] == closed, alg.name
                assert lat.residual(lat.masks[i], lat.masks[j]) == _greatest_residual(lat, i, j), alg.name


CERTIFIED = ("ideal-lattice.distributive", "join.witness-form", "residuation.adjunction")


def test_certified_laws_agree_with_the_triple_oracles(corpus_to_five, residuation_table):
    # the certificate-based rows against the m^3 loops they replace; each
    # row also counts what it checked: m down-sets and k joins, m(m+1)/2
    # pairs, and the k^2 residuals of a join-irreducible by a
    # meet-irreducible and the bottom's
    for alg in corpus_to_five:
        lat = enumerate_ideals(alg)
        m, k = len(lat), len(lat.join_irreducibles)
        rows = {r.law: r for r in run_suite([Fixture(alg.name, alg)], laws=CERTIFIED)}
        closure_joins = [[lat.index(_closure_join(alg, a, b)) for b in lat.masks] for a in lat.masks]
        distributive = _distributive_by_triples(lat.masks, closure_joins)
        assert (rows["ideal-lattice.distributive"].verdict == "pass") == distributive, alg.name
        residuated = _residuation_by_triples(lat, residuation_table(lat))
        assert (rows["residuation.adjunction"].verdict == "pass") == residuated, alg.name
        assert rows["join.witness-form"].verdict == "pass", alg.name
        assert rows["ideal-lattice.distributive"].instances == m + k, alg.name
        assert rows["join.witness-form"].instances == m * (m + 1) // 2, alg.name
        assert rows["residuation.adjunction"].instances == k * k + 1, alg.name


def test_join_irreducibles_are_found_once_per_lattice(algebras, monkeypatch):
    # enumerate_ideals hands its join-irreducibles to the lattice
    calls = []
    found = ideals._join_irreducibles
    monkeypatch.setattr(
        ideals, "_join_irreducibles", lambda *a: calls.append(a) or found(*a)
    )
    corpus = list(algebras.values()) + list(enumerate_all(4))
    for alg in corpus:
        enumerate_ideals(alg)
        assert len(calls) == 1, alg.name
        calls.clear()


def test_the_walk_hands_over_each_ideals_down_set(corpus_to_five):
    # the down-set at a leaf of the walk is S_I of the ideal it yields: the
    # lattice keeps it, and it equals the join-irreducibles found inside
    # each mask afterwards (the test-only recomputation)
    corpus = list(corpus_to_five) + [f.algebra for f in product_pairs()]
    for alg in corpus:
        lat = enumerate_ideals(alg)
        recomputed = ideals._downsets(list(lat.join_irreducibles), lat.masks)
        assert list(lat.downsets) == recomputed, alg.name


def test_the_walk_gates_its_k_points_and_no_leaf(monkeypatch, algebras):
    # once each P_j passes is_ideal every leaf is an intersection of them,
    # so a lattice build on an L-algebra calls is_ideal k times, not m
    calls = []
    real = ideals.is_ideal
    monkeypatch.setattr(ideals, "is_ideal", lambda *a: calls.append(a) or real(*a))
    for alg in algebras.values():
        calls.clear()
        lat = enumerate_ideals(alg)
        assert len(calls) == len(lat.join_irreducibles), alg.name


def test_a_point_that_fails_its_gate_gates_every_leaf(monkeypatch, algebras, ideal_walk_oracle):
    # planted: is_ideal rejects one P_j at a time.  The walk then certifies
    # nothing and gates each leaf, so P_j, and only P_j, drops out of the
    # masks, as in the oracle that gates every leaf
    real = ideals.is_ideal
    lattices = {name: enumerate_ideals(algebras[name]) for name in ("omega3", "omega5", "B2xB2", "diamondxB2")}
    for name, lat in lattices.items():
        alg = lat.algebra
        principal, joinirr = tuple(lat.masks[k] for k in lat.principal), lat.join_irreducibles
        every = set(lat.masks)
        for planted in ideals._point_candidates(principal, joinirr):
            monkeypatch.setattr(ideals, "is_ideal", lambda a, m, planted=planted: m != planted and real(a, m))
            got = ideals._ideal_masks(alg, principal, joinirr)
            assert {mask for mask, _ in got} == every - {planted}, name
            assert sorted(got) == sorted(ideal_walk_oracle(alg, principal, joinirr)), name


def _relabelled(alg):
    """The same unit and table under other labels and another name."""
    labels = tuple(f"{label}'" for label in alg.labels)
    return FiniteLAlgebra(f"{alg.name}'", labels, alg.unit, alg.table)


def test_a_memo_hit_equals_a_cold_build(monkeypatch, corpus_to_five):
    # a run's facts hold each table's principal and point masks, here built
    # for a relabelled twin; the hit computes nothing and is the cold build,
    # which is the lattice's principal ideals and its points in (popcount,
    # mask) order, on every algebra of the corpus and every sub-algebra and
    # quotient of their ideals
    cold_builds = []
    real_points = spectrum.point_masks
    monkeypatch.setattr(
        spectrum, "point_masks", lambda alg, *a: cold_builds.append(alg) or real_points(alg, *a)
    )
    corpus = list(corpus_to_five) + [f.algebra for f in product_pairs()]
    algs = list(corpus)
    for alg in corpus:
        for mask in enumerate_ideals(alg).masks:
            algs.append(subalgebra(alg, mask)[0])
            algs.append(quotient(alg, mask).algebra)
    for alg in algs:
        cold = spectrum_facts(alg, {})
        facts = {}
        spectrum_facts(_relabelled(alg), facts)
        before = len(cold_builds)
        assert spectrum_facts(alg, facts) == cold, alg.name
        assert len(cold_builds) == before, alg.name
        lat = enumerate_ideals(alg)
        assert cold[0] == tuple(lat.masks[k] for k in lat.principal), alg.name
        assert cold[1] == tuple(lat.masks[p] for p in sorted(prime_ideals(lat).points)), alg.name


def test_the_memo_keys_on_the_unit_and_the_table(chain3):
    # chain3's table with the unit moved to a: one table, two sets of facts
    moved = FiniteLAlgebra("chain3@a", chain3.labels, chain3.index_of("a"), chain3.table)
    facts = {}
    mine = spectrum_facts(chain3, facts)
    other = spectrum_facts(moved, facts)
    assert len(facts) == 2
    assert other == spectrum_facts(moved, {}) != mine
    assert mine == spectrum_facts(chain3, {})


def test_quotient_spectra_are_read_through_the_run_facts(chain3):
    # the facts of X/P and of the sub-algebras go into the dict the caller
    # passes, one entry per table: chain3/{1} has chain3's table and
    # chain3/{1,a} adds one; the sub-algebras add only {1}, whose table
    # X/X shares
    lat = enumerate_ideals(chain3)
    spec = prime_ideals(lat)
    facts = {}
    assert prime_quotient_oracle(spec, facts) is None
    assert set(facts) == {(chain3.unit, chain3.table), (0, ((0, 1), (0, 0)))}
    for k in range(len(lat)):
        relative_spectrum(spec, k, facts)
    assert set(facts) == {(chain3.unit, chain3.table), (0, ((0, 1), (0, 0))), (0, ((0,),))}


def test_join_irreducible_route_matches_subset_filter_at_twelve_elements():
    # 2 x 6 grid poset, 12 elements
    elements = tuple(f"a{i}" for i in range(6)) + tuple(f"b{i}" for i in range(6))
    covers = (
        tuple((f"a{i}", f"a{i+1}") for i in range(5))
        + tuple((f"b{i}", f"b{i+1}") for i in range(5))
        + tuple((f"b{i}", f"a{i}") for i in range(6))
    )
    alg = poset_algebra(PosetSpec(elements=elements, covers=covers, top="a5"))
    assert sorted(enumerate_ideals(alg).masks) == _ideal_masks_by_filter(alg)


def test_lattice_shape(b2, diamond):
    lat = enumerate_ideals(b2)
    assert len(lat) == 2
    assert lat.masks[lat.bottom] == 1 << b2.unit
    assert lat.masks[lat.top] == b2.full_mask
    assert len(enumerate_ideals(diamond)) == 2


def test_join_examples(algebras):
    b2xb2 = algebras["B2xB2"]
    lat = enumerate_ideals(b2xb2)
    atoms = [m for m in lat.masks if m.bit_count() == 2]
    assert len(atoms) == 2
    join = _closure_join(b2xb2, atoms[0], atoms[1])
    assert join == b2xb2.full_mask
    pair = (lat.index(atoms[0]), lat.index(atoms[1]))
    assert {(i, j): w for i, j, w in witness_joins(lat)}[pair] == join


def test_join_witness_example_b2xb2(algebras):
    # y = (0,0) joins the two atoms via the witness x = (0,1)
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    i_left = next(m for m in lat.masks if _labels(alg, m) == {"(1,1)", "(0,1)"})
    i_right = next(m for m in lat.masks if _labels(alg, m) == {"(1,1)", "(1,0)"})
    y = alg.index_of("(0,0)")
    x = alg.index_of("(0,1)")
    assert (i_left >> x) & 1
    assert (i_right >> alg.table[x][y]) & 1 and (i_right >> alg.table[y][x]) & 1


def test_join_bottom_neutral(algebras):
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        bottom = lat.masks[lat.bottom]
        for mask in lat.masks:
            assert _closure_join(alg, bottom, mask) == mask


def test_residuation_examples(chain3, omega3, residuation_table):
    lat = enumerate_ideals(chain3)
    table = residuation_table(lat)
    for i in range(len(lat)):
        assert lat.masks[table[i][i]] == chain3.full_mask
    i_1a = next(k for k, m in enumerate(lat.masks) if _labels(chain3, m) == {"1", "a"})
    assert table[i_1a][lat.bottom] == lat.bottom

    lat3 = enumerate_ideals(omega3)
    i_yx1 = next(k for k, m in enumerate(lat3.masks) if _labels(omega3, m) == {"y", "x", "1"})
    j_x1 = next(k for k, m in enumerate(lat3.masks) if _labels(omega3, m) == {"x", "1"})
    result = lat3.masks[lat3.residual(lat3.masks[i_yx1], lat3.masks[j_x1])]
    assert _labels(omega3, result) == {"1", "x", "x2", "x3"}
    # which is exactly the principal ideal of the deepest chain element
    assert result == close_under_rules(omega3, 1 << omega3.index_of("x3"))


def test_every_ideal_is_upper_and_closed(algebras):
    for alg in algebras.values():
        order = alg.order
        for mask in enumerate_ideals(alg).masks:
            for x in range(alg.n):
                if (mask >> x) & 1:
                    assert order.above[x] & ~mask == 0
                    for y in range(alg.n):
                        if (mask >> y) & 1:
                            assert (mask >> alg.table[x][y]) & 1


def test_is_ideal_rejects_non_ideals(diamond):
    p = diamond.index_of("p")
    assert not is_ideal(diamond, (1 << diamond.unit) | (1 << p))
    assert is_ideal(diamond, diamond.full_mask)


def _least_cover(masks, union):
    """The join in a hand-built family of sets: its least member holding ``union``."""
    return min((m for m in masks if union & ~m == 0), key=int.bit_count)


def _planted_certificate(masks, join_irreducibles):
    downsets = ideals._downsets(join_irreducibles, masks)
    join = lambda union: _least_cover(masks, union)
    return certify_distributive(masks, join_irreducibles, downsets, join, "planted", int)


def _table_of_joins(masks):
    return [[masks.index(_least_cover(masks, a | b)) for b in masks] for a in masks]


def test_distributivity_checker_trips_on_n5():
    # 0 < a < b < 1 and 0 < c < 1: b is join-irreducible, yet it lies below
    # a v c although neither a nor c is above it
    masks = [0b0001, 0b0011, 0b1001, 0b0111, 0b1111]
    assert not _distributive_by_triples(masks, _table_of_joins(masks))
    with pytest.raises(DistributivityFailure) as exc:
        _planted_certificate(masks, [0b0011, 0b1001, 0b0111])
    assert exc.value.witness == {"join_irreducible": 0b0111, "join_of_the_rest": 0b1111}


def test_distributivity_checker_trips_on_m3():
    # three atoms under one top: each atom lies below the join of the others
    masks = [0b0001, 0b0011, 0b0101, 0b1001, 0b1111]
    assert not _distributive_by_triples(masks, _table_of_joins(masks))
    with pytest.raises(DistributivityFailure) as exc:
        _planted_certificate(masks, masks[1:4])
    assert exc.value.witness["join_irreducible"] == 0b0011


def _with_downsets(lat, downsets):
    """A lattice over the same masks, principal ideals and join-irreducibles,
    given the planted ``downsets``."""
    principal = [lat.masks[p] for p in lat.principal]
    return IdealLattice(lat.algebra, zip(lat.masks, downsets), principal, lat.join_irreducibles)


def test_shared_down_set_fails_the_distributivity_law(monkeypatch, chain3):
    # plant the down-set of {1,a} on the top of chain3: construction keeps
    # the last of the two in its join index and raises nothing, so the
    # certificate's injectivity check is what must name both
    real = enumerate_ideals(chain3)
    lat = _with_downsets(real, real.downsets[:-1] + real.downsets[-2:-1])
    monkeypatch.setattr(laws, "enumerate_ideals", lambda alg: lat)
    fixture = Fixture("chain3", chain3)
    report = run_law("ideal-lattice.distributive", fixture)
    assert report.verdict == "fail"
    assert report.witness["error"] == "DistributivityFailure"
    assert (report.witness["I"], report.witness["J"]) == (("1", "a"), ("1", "a", "b"))
    # the residuation law loses its certificate and checks all m^3 triples
    report = run_law("residuation.adjunction", fixture)
    assert report.verdict == "pass"
    assert report.instances == 3 ** 3


def test_join_witness_mismatch_surfaces_on_magma():
    # not an L-algebra: absorption pulls b into the closure of {1,a}, but b
    # has no witness, so the two join characterizations split
    magma = FiniteLAlgebra(
        "magma", ("1", "a", "b"), 0, ((0, 1, 2), (0, 0, 1), (0, 2, 0))
    )
    # {1,a} is no ideal and shares the bottom's empty down-set, so the join
    # of {1} with itself, the first pair, is looked up as {1,a}; <a> = <b> =
    # X, the only join-irreducible
    lat = IdealLattice(magma, [(0b001, 0), (0b011, 0), (0b111, 1)], (0b001, 0b111, 0b111), [0b111])
    with pytest.raises(JoinWitnessMismatch, match="lattice join") as caught:
        next(witness_joins(lat))
    assert (caught.value.witness["left"], caught.value.witness["right"]) == (("1",), ("1",))
    assert caught.value.witness["lattice_join"] == ("1", "a")
    assert "table_join" not in caught.value.witness


def test_residuation_cross_check_trips_on_wrong_values(monkeypatch, b2):
    # force the element-wise route to return the bottom everywhere: the
    # table fills, since the bottom is an ideal, and the adjunction law
    # must refuse it
    monkeypatch.setattr(
        IdealLattice, "_residuation_mask", lambda self, imask, jmask: self.masks[self.bottom]
    )
    report = run_law("residuation.adjunction", Fixture("B2", b2))
    assert report.verdict == "fail"
    assert report.witness is not None and "algebra_document" in report.witness


def test_residual_outside_the_family_raises(monkeypatch, b2):
    # an element-wise residual that is not an ideal misses the index, when
    # the residuals are first read: construction computes none
    monkeypatch.setattr(
        IdealLattice, "_residuation_mask", lambda self, imask, jmask: 1 << (1 - b2.unit)
    )
    lat = enumerate_ideals(b2)
    with pytest.raises(ResiduationNotGreatest):
        lat.residuals()


def test_join_outside_the_family_raises(algebras):
    # plant a wrong down-set on the top of B2xB2: the union of the two atoms'
    # down-sets then names no ideal, which only a non-distributive lattice
    # allows; the join of the two atoms raises on the miss
    real = enumerate_ideals(algebras["B2xB2"])
    wrong_top = real.downsets[-1] | 1 << len(real.join_irreducibles)
    lat = _with_downsets(real, real.downsets[:-1] + (wrong_top,))
    atoms = [k for k, m in enumerate(lat.masks) if m.bit_count() == 2]
    assert len(atoms) == 2
    with pytest.raises(DistributivityFailure):
        lat.join(*atoms)


def test_congruence_classes_chain3(chain3):
    lat = enumerate_ideals(chain3)
    i_1a = next(m for m in lat.masks if _labels(chain3, m) == {"1", "a"})
    cong = congruence_of(chain3, i_1a)
    assert len(cong.classes) == 2
    assert {frozenset(_labels(chain3, m)) for m in cong.classes} == {
        frozenset({"1", "a"}),
        frozenset({"b"}),
    }


def test_congruence_identity_and_full(diamond):
    lat = enumerate_ideals(diamond)
    assert len(congruence_of(diamond, lat.masks[lat.bottom]).classes) == diamond.n
    assert len(congruence_of(diamond, lat.masks[lat.top]).classes) == 1


def test_congruence_round_trip(algebras):
    for alg in algebras.values():
        for mask in enumerate_ideals(alg).masks:
            assert congruence_of(alg, mask).unit_class() == mask


def test_congruence_failure_on_magma(magma):
    # mod {1}: a ~ b and b ~ c but not a ~ c, so the relation is not even
    # an equivalence; only possible on a table that is not an L-algebra.
    # The lattice builds ({1} and X); the law finds the fault on {1}.
    assert [labels_of(magma, m) for m in enumerate_ideals(magma).masks] == [("1",), ("1", "a", "b", "c")]
    report = run_law("congruence.bijection", Fixture("magma", magma))
    assert report.verdict == "fail"
    assert report.instances == 1
    assert report.witness["ideal"] == ("1",)
    assert report.witness["problem"] == "not an equivalence"


def test_quotient_by_bottom_is_identity(algebras):
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        q = quotient(alg, lat.masks[lat.bottom])
        assert q.algebra.table == alg.table
        assert q.congruence.class_of == tuple(range(alg.n))


def test_quotient_by_top_is_singleton(diamond):
    lat = enumerate_ideals(diamond)
    q = quotient(diamond, lat.masks[lat.top])
    assert q.algebra.n == 1
    assert set(q.congruence.class_of) == {0}


def test_quotient_chain3_by_1a_is_b2(chain3, b2):
    lat = enumerate_ideals(chain3)
    i_1a = next(m for m in lat.masks if _labels(chain3, m) == {"1", "a"})
    quot = quotient(chain3, i_1a).algebra
    assert quot.n == 2
    # same shape as the two-element Boolean algebra: relabel through the unit
    u = quot.unit
    other = 1 - u
    assert quot.table[other][other] == u
    assert quot.table[other][u] == u
    assert quot.table[u][other] == other


def test_quotient_name_is_deterministic(chain3):
    lat = enumerate_ideals(chain3)
    i_1a = next(m for m in lat.masks if _labels(chain3, m) == {"1", "a"})
    quot = quotient(chain3, i_1a).algebra
    assert quot.name == "chain3/{1,a}"


def test_mask_of():
    assert mask_of([0, 2, 3]) == 0b1101
