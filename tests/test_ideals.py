import pytest

from lalg.constructions import PosetSpec, enumerate_all, poset_algebra
from lalg.core import FiniteLAlgebra
from lalg.errors import (
    CongruenceFailure,
    DistributivityFailure,
    JoinWitnessMismatch,
    ResiduationNotGreatest,
)
from lalg.ideals import (
    IdealLattice,
    check_distributive,
    close_under_rules,
    congruence_of,
    enumerate_ideals,
    generate_ideal,
    ideal_of_congruence,
    is_ideal,
    join_via_closure,
    join_via_witness,
    mask_of,
    quotient,
    residuation,
)


def _labels(alg, mask):
    return {alg.label(i) for i in range(alg.n) if (mask >> i) & 1}


def test_generate_empty_seed_gives_bottom(algebras):
    for alg in algebras.values():
        assert generate_ideal(alg, []).members == 1 << alg.unit


def test_generate_diamond_p_is_everything(diamond):
    p, q = diamond.index_of("p"), diamond.index_of("q")
    assert generate_ideal(diamond, [p]).members == diamond.full_mask
    assert generate_ideal(diamond, [q]).members == diamond.full_mask


def test_generate_chain3(chain3):
    a = chain3.index_of("a")
    assert _labels(chain3, generate_ideal(chain3, [a]).members) == {"1", "a"}


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


def _ideal_masks_by_filter(alg):
    """Oracle: every unit-containing subset that passes ``is_ideal``."""
    assert alg.n <= 12, "the subset filter tries 2^(n-1) candidates"
    unit_bit = 1 << alg.unit
    return sorted(
        m for m in range(1 << alg.n) if m & unit_bit and is_ideal(alg, m)
    )


def test_join_irreducible_route_matches_subset_filter(algebras):
    corpus = list(algebras.values())
    corpus += [a for n in (1, 2, 3, 4) for a in enumerate_all(n)]
    iso5 = list(enumerate_all(5, up_to_iso=True))
    assert len(iso5) == 632
    for alg in corpus + iso5:
        assert sorted(enumerate_ideals(alg).masks) == _ideal_masks_by_filter(alg), alg.name


def test_join_irreducible_route_matches_subset_filter_at_twelve_elements():
    # 2 x 6 grid poset, 12 elements
    elements = tuple(f"a{i}" for i in range(6)) + tuple(f"b{i}" for i in range(6))
    covers = (
        tuple((f"a{i}", f"a{i+1}") for i in range(5))
        + tuple((f"b{i}", f"b{i+1}") for i in range(5))
        + tuple((f"b{i}", f"a{i}") for i in range(6))
    )
    alg = poset_algebra(
        PosetSpec(elements=elements, covers=covers, top="a5"), verify_ideals=False
    )
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
    atoms = [i for i in lat.ideals if len(i) == 2]
    assert len(atoms) == 2
    join = join_via_closure(lat, atoms[0], atoms[1])
    assert join.members == b2xb2.full_mask
    assert join_via_witness(lat, atoms[0], atoms[1]).members == join.members


def test_join_witness_example_b2xb2(algebras):
    # y = (0,0) joins the two atoms via the witness x = (0,1)
    alg = algebras["B2xB2"]
    lat = enumerate_ideals(alg)
    i_left = next(i for i in lat.ideals if _labels(alg, i.members) == {"(1,1)", "(0,1)"})
    i_right = next(i for i in lat.ideals if _labels(alg, i.members) == {"(1,1)", "(1,0)"})
    y = alg.index_of("(0,0)")
    x = alg.index_of("(0,1)")
    assert x in i_left
    assert alg.table[x][y] in i_right and alg.table[y][x] in i_right


def test_join_bottom_neutral(algebras):
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        bottom = lat.ideals[lat.bottom]
        for ideal in lat.ideals:
            assert join_via_closure(lat, bottom, ideal).members == ideal.members


def test_residuation_examples(chain3, omega3):
    lat = enumerate_ideals(chain3)
    for ideal in lat.ideals:
        assert residuation(lat, ideal, ideal).members == chain3.full_mask
    i_1a = next(i for i in lat.ideals if _labels(chain3, i.members) == {"1", "a"})
    bottom = lat.ideals[lat.bottom]
    assert residuation(lat, i_1a, bottom).members == bottom.members

    lat3 = enumerate_ideals(omega3)
    i_yx1 = next(i for i in lat3.ideals if _labels(omega3, i.members) == {"y", "x", "1"})
    j_x1 = next(i for i in lat3.ideals if _labels(omega3, i.members) == {"x", "1"})
    result = residuation(lat3, i_yx1, j_x1)
    assert _labels(omega3, result.members) == {"1", "x", "x2", "x3"}
    # which is exactly the principal ideal of the deepest chain element
    assert result.members == generate_ideal(omega3, [omega3.index_of("x3")]).members


def test_every_ideal_is_upper_and_closed(algebras):
    for alg in algebras.values():
        order = alg.order
        for ideal in enumerate_ideals(alg).ideals:
            for x in ideal:
                assert order.above[x] & ~ideal.members == 0
                for y in ideal:
                    assert alg.table[x][y] in ideal


def test_is_ideal_rejects_non_ideals(diamond):
    p = diamond.index_of("p")
    assert not is_ideal(diamond, (1 << diamond.unit) | (1 << p))
    assert is_ideal(diamond, diamond.full_mask)


def test_distributivity_checker_trips_on_n5():
    masks = (0b0001, 0b0011, 0b1001, 0b0111, 0b1111)
    index = {m: k for k, m in enumerate(masks)}
    join_table = (
        (0, 1, 2, 3, 4),
        (1, 1, 4, 3, 4),
        (2, 4, 2, 4, 4),
        (3, 3, 4, 3, 4),
        (4, 4, 4, 4, 4),
    )
    with pytest.raises(DistributivityFailure):
        check_distributive(masks, index, join_table)


def test_join_witness_mismatch_surfaces_on_magma():
    # not an L-algebra: absorption pulls b into the closure of {1,a}, but b
    # has no witness, so the two join characterizations split
    magma = FiniteLAlgebra(
        "magma", ("1", "a", "b"), 0, ((0, 1, 2), (0, 0, 1), (0, 2, 0))
    )
    with pytest.raises(JoinWitnessMismatch):
        IdealLattice(magma, [0b001, 0b011, 0b111])


def test_residuation_cross_check_trips_on_wrong_values(monkeypatch, b2):
    # force the element-wise route to return the bottom everywhere; the
    # greatest-ideal scan must refuse it rather than fill the table
    monkeypatch.setattr(
        IdealLattice, "_residuation_mask", lambda self, imask, jmask: self.masks[self.bottom]
    )
    with pytest.raises(ResiduationNotGreatest):
        enumerate_ideals(b2)


def test_congruence_classes_chain3(chain3):
    lat = enumerate_ideals(chain3)
    i_1a = next(i for i in lat.ideals if _labels(chain3, i.members) == {"1", "a"})
    cong = congruence_of(chain3, i_1a)
    assert len(cong.classes) == 2
    assert {frozenset(_labels(chain3, m)) for m in cong.classes} == {
        frozenset({"1", "a"}),
        frozenset({"b"}),
    }


def test_congruence_identity_and_full(diamond):
    lat = enumerate_ideals(diamond)
    bottom = lat.ideals[lat.bottom]
    top = lat.ideals[lat.top]
    assert len(congruence_of(diamond, bottom).classes) == diamond.n
    assert len(congruence_of(diamond, top).classes) == 1


def test_congruence_round_trip(algebras):
    for alg in algebras.values():
        for ideal in enumerate_ideals(alg).ideals:
            cong = congruence_of(alg, ideal)
            assert ideal_of_congruence(cong).members == ideal.members


def test_congruence_failure_on_magma():
    # mod {1}: a ~ b and b ~ c but not a ~ c, so the relation is not even
    # an equivalence; only possible on a table that is not an L-algebra
    from lalg.ideals import Ideal

    magma = FiniteLAlgebra(
        "magma",
        ("1", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (0, 0, 0, 3), (0, 0, 0, 0), (0, 1, 0, 0)),
    )
    with pytest.raises(CongruenceFailure):
        congruence_of(magma, Ideal(magma, 0b0001))


def test_quotient_by_bottom_is_identity(algebras):
    for alg in algebras.values():
        lat = enumerate_ideals(alg)
        quot, proj = quotient(alg, lat.ideals[lat.bottom])
        assert quot.table == alg.table
        assert proj == tuple(range(alg.n))


def test_quotient_by_top_is_singleton(diamond):
    lat = enumerate_ideals(diamond)
    quot, proj = quotient(diamond, lat.ideals[lat.top])
    assert quot.n == 1
    assert set(proj) == {0}


def test_quotient_chain3_by_1a_is_b2(chain3, b2):
    lat = enumerate_ideals(chain3)
    i_1a = next(i for i in lat.ideals if _labels(chain3, i.members) == {"1", "a"})
    quot, proj = quotient(chain3, i_1a)
    assert quot.n == 2
    # same shape as the two-element Boolean algebra: relabel through the unit
    u = quot.unit
    other = 1 - u
    assert quot.table[other][other] == u
    assert quot.table[other][u] == u
    assert quot.table[u][other] == other


def test_quotient_name_is_deterministic(chain3):
    lat = enumerate_ideals(chain3)
    i_1a = next(i for i in lat.ideals if _labels(chain3, i.members) == {"1", "a"})
    quot, _ = quotient(chain3, i_1a)
    assert quot.name == "chain3/{1,a}"


def test_mask_of():
    assert mask_of([0, 2, 3]) == 0b1101
