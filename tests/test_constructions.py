import pytest

from lalg.constructions import (
    PosetSpec,
    ordered_sum,
    poset_algebra,
    product,
    product_injections,
    product_pairs,
)
from lalg.core import structure_flags, validate
from lalg.ideals import close_under_rules, enumerate_ideals, labels_of
from lalg.spectrum import prime_ideals


def _same_table_shape(a, b):
    """Equal operation tables after matching labels positionally."""
    return a.n == b.n and a.unit == b.unit and a.table == b.table


def test_product_with_unit_factor_is_isomorphic(b2, algebras):
    unit = algebras["unit"]
    prod = product(b2, unit)
    assert _same_table_shape(prod, b2) or prod.table == b2.table
    assert prod.n == 2


def test_product_b2_b2_is_boolean_square(algebras):
    alg = algebras["B2xB2"]
    assert alg.n == 4
    lat = enumerate_ideals(alg)
    assert len(lat) == 4
    flags = structure_flags(alg)
    assert flags.brouwerian


def test_product_injections_commute():
    # each factor embeds as a subalgebra, and by the unit laws an element of
    # one factor applied to an element of the other returns the latter
    for pair in product_pairs():
        x, y = pair.factors
        prod = pair.algebra
        left, right = product_injections(x, y)
        for embed, factor in ((left, x), (right, y)):
            for i in range(factor.n):
                for j in range(factor.n):
                    assert prod.table[embed[i]][embed[j]] == embed[factor.table[i][j]], pair.name
        for a in left:
            for b in right:
                assert prod.table[a][b] == b and prod.table[b][a] == a, pair.name


def test_product_lattice_factorizes(b2, diamond):
    prod = product(diamond, b2)
    assert len(enumerate_ideals(prod)) == len(enumerate_ideals(diamond)) * len(
        enumerate_ideals(b2)
    )


def test_ordered_sum_unit_left_is_right(b2, algebras):
    s = ordered_sum(algebras["unit"], b2)
    assert s.n == b2.n and s.table == b2.table


def test_ordered_sum_b2_b2_is_chain(b2, chain3):
    s = ordered_sum(b2, b2)
    assert s.n == 3
    order = s.order
    # a total order: every pair comparable
    for i in range(3):
        for j in range(3):
            assert order.leq(i, j) or order.leq(j, i)
    assert s.labels == ("l:0", "r:0", "r:1")


def test_ordered_sum_example5_ideals(algebras):
    alg = algebras["example5"]
    lat = enumerate_ideals(alg)
    families = {frozenset(labels_of(alg, m)) for m in lat.masks}
    assert families == {
        frozenset({"1"}),
        frozenset({"0", "1"}),
        frozenset({"p", "0", "1"}),
        frozenset({"q", "0", "1"}),
        frozenset({"p", "q", "0", "1"}),
    }
    # the two finitely generated covers intersect in the middle ideal
    spec = prime_ideals(lat)
    assert spec.point_count == 3


def test_ordered_sum_everything_below(diamond, b2):
    s = ordered_sum(diamond, b2)
    order = s.order
    for low in range(3):  # diamond minus its unit
        for high in range(3, 5):
            assert order.leq(low, high)


def test_poset_algebra_two_chain_is_b2(b2):
    alg = poset_algebra(PosetSpec(elements=("0", "1"), covers=(("0", "1"),), top="1"))
    assert alg.table == b2.table


def test_poset_algebra_ideals_are_upper_sets(upper_set_masks):
    spec = PosetSpec(
        elements=("1", "p", "q", "0"),
        covers=(("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")),
        top="1",
    )
    alg = poset_algebra(spec)
    assert set(enumerate_ideals(alg).masks) == upper_set_masks(spec)
    # {1}, {1,p}, {1,q}, {1,p,q} and the whole carrier
    assert len(enumerate_ideals(alg)) == 5


def test_poset_algebra_omega_principal_chain(omega3):
    x3 = omega3.index_of("x3")
    principal = close_under_rules(omega3, 1 << x3)
    assert set(labels_of(omega3, principal)) == {"1", "x", "x2", "x3"}


def test_poset_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        PosetSpec(("a", "b"), (("a", "b"), ("b", "a")), "b").leq_matrix()  # cycle
    with pytest.raises(ValueError):
        PosetSpec(("a", "b"), (), "b").leq_matrix()  # b not above a
    with pytest.raises(ValueError):
        PosetSpec(("a", "a"), (), "a").leq_matrix()  # duplicate labels
    with pytest.raises(ValueError):
        PosetSpec(("a",), (("a", "z"),), "a").leq_matrix()  # unknown cover label


def test_fixture_expected_facts(fixture_map):
    for name, fixture in fixture_map.items():
        alg = fixture.algebra
        flags = structure_flags(alg)
        for key, value in fixture.expected.items():
            if key == "ideals":
                assert len(enumerate_ideals(alg)) == value, name
            elif key == "spectrum":
                assert prime_ideals(enumerate_ideals(alg)).point_count == value, name
            elif key == "quasi_primes":
                from lalg.spectrum import quasi_prime_elements

                got = {
                    alg.label(i)
                    for i in quasi_prime_elements(enumerate_ideals(alg))
                }
                assert got == set(value), name
            else:
                assert getattr(flags, key) == value, (name, key)


def test_fixtures_cover_spec_minimum(fixture_map):
    assert {
        "unit",
        "B2",
        "diamond",
        "chain3",
        "omega3",
        "omega5",
        "example5",
        "B2xB2",
        "diamondxB2",
    } <= set(fixture_map)


def test_diamond_fixture_matches_published_products(diamond):
    p, q, zero = (diamond.index_of(s) for s in ("p", "q", "0"))
    assert diamond.table[p][q] == zero
    assert diamond.table[p][zero] == zero
    assert diamond.table[q][p] == zero
    assert diamond.table[q][zero] == zero


def test_product_pairs_are_nine_and_validated():
    pairs = product_pairs()
    assert len(pairs) == 9
    for f in pairs:
        assert f.factors is not None
        validate(f.algebra.table, f.algebra.unit, f.algebra.labels, f.algebra.name)
