import random

import pytest

from lalg.constructions import Fixture, enumerate_all
from lalg.core import (
    FiniteLAlgebra,
    axiom_violations,
    derive_order,
    partial_product,
    structure_flags,
    subalgebra,
    validate,
)
from lalg.errors import (
    AxiomViolation,
    MalformedTable,
    NonUniqueProduct,
    SizeTooLarge,
)
from lalg.laws import run_law


def test_validate_b2():
    alg = validate([[1, 1], [0, 1]], 1, labels=("0", "1"), name="B2")
    assert alg.n == 2
    assert alg.table[1][0] == 0 and alg.table[0][1] == 1 and alg.table[0][0] == 1


def test_validate_singleton():
    alg = validate([[0]], 0)
    assert alg.n == 1 and alg.unit == 0


def test_validate_reports_all_violations():
    # break x*x = 1 at 0 AND antisymmetry between fresh elements
    with pytest.raises(AxiomViolation) as exc:
        validate([[0, 1], [0, 1]], 1)  # 0*0 = 0, plus whatever else follows
    violations = exc.value.violations
    assert len(violations) >= 1
    assert any(v.axiom == "unit" and v.witness == (0,) for v in violations)


def test_validate_collects_multiple_axioms():
    # table with both a unit-law break and an antisymmetry break
    table = [
        [1, 1, 1],
        [0, 1, 2],
        [0, 1, 1],
    ]
    # element 1 is the unit; 0*2: make 0 <= 2 and 2 <= 0
    table[0][2] = 1
    table[2][0] = 1
    violations = axiom_violations(table, 1)
    kinds = {v.axiom for v in violations}
    assert "antisymmetry" in kinds


def _exchange_violations_by_triples(table):
    """Oracle: the exchange identity checked at every (x, y, z), in that order."""
    n = len(table)
    return [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if table[table[x][y]][table[x][z]] != table[table[y][x]][table[y][z]]
    ]


def test_row_wise_exchange_check_matches_the_triple_loop():
    # random tables, and L-algebras with one or two entries changed, so that
    # the lists range from empty through a few triples to most of them
    rng = random.Random(7)
    valid = [a.table for n in (2, 3, 4) for a in enumerate_all(n)]
    tables = []
    for _ in range(1500):
        n = rng.randint(1, 6)
        tables.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    for _ in range(1500):
        table = [list(row) for row in rng.choice(valid)]
        n = len(table)
        for _ in range(rng.randint(1, 2)):
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        tables.append(table)
    for table in tables:
        unit = 0
        found = [v.witness for v in axiom_violations(table, unit) if v.axiom == "exchange"]
        assert found == _exchange_violations_by_triples(table), table
        # restricted to some columns z, the same triples with z among them
        columns = sorted(rng.sample(range(len(table)), rng.randint(1, len(table))))
        found = [v.witness for v in axiom_violations(table, unit, columns) if v.axiom == "exchange"]
        assert found == [t for t in _exchange_violations_by_triples(table) if t[2] in columns]


def test_malformed_tables():
    with pytest.raises(MalformedTable):
        validate([[0, 1]], 0)  # not square
    with pytest.raises(MalformedTable):
        validate([[0, 5], [0, 0]], 0)  # out of range
    with pytest.raises(MalformedTable):
        validate([[0]], 3)  # unit out of range
    with pytest.raises(MalformedTable):
        validate([[0, 1], [0, 0]], 0, labels=("x", "x"))  # duplicate labels
    with pytest.raises(MalformedTable):
        validate([], 0)


def test_bool_entries_are_malformed():
    # True is an int in Python; a table of bools is still not a table of indices
    with pytest.raises(MalformedTable):
        validate([[False, True], [False, False]], 0)


def test_carrier_cap():
    # an input limit, not a malformed table
    n = 65
    table = [[0] * n for _ in range(n)]
    with pytest.raises(SizeTooLarge):
        validate(table, 0)


def test_order_b2_is_two_chain(b2):
    order = derive_order(b2)
    zero, one = b2.index_of("0"), b2.index_of("1")
    assert order.leq(zero, one) and not order.leq(one, zero)


def test_order_diamond_hasse(diamond):
    order = derive_order(diamond)
    one, p, q, zero = (diamond.index_of(s) for s in ("1", "p", "q", "0"))
    assert order.leq(zero, p) and order.leq(zero, q)
    assert order.leq(p, one) and order.leq(q, one)
    assert not order.leq(p, q) and not order.leq(q, p)


def test_order_chain3_total(chain3):
    order = derive_order(chain3)
    one, a, b = (chain3.index_of(s) for s in ("1", "a", "b"))
    assert order.leq(b, a) and order.leq(a, one) and order.leq(b, one)


def test_not_transitive_cross_check():
    # a <= b <= c but a and c incomparable: impossible for a valid algebra,
    # so this table goes in unvalidated; derive_order reads the relation and
    # the law order.partial-order refuses it
    alg = FiniteLAlgebra(
        "bad",
        ("1", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (0, 0, 0, 3), (0, 1, 0, 0), (0, 1, 2, 0)),
    )
    assert derive_order(alg).leq(1, 2) and not derive_order(alg).leq(1, 3)
    report = run_law("order.partial-order", Fixture("bad", alg))
    assert report.verdict == "fail"
    assert report.witness["problem"] == "not transitive"
    assert report.witness["triple"] == ["a", "b", "c"]
    # one instance for each of the elements 1 and a, one for each of the
    # pairs a < 1 and a < b
    assert report.instances == 4


def _product_oracle(alg, x, y):
    """Independent scan: all z <= y with y*z = x."""
    return [
        z
        for z in range(alg.n)
        if alg.table[z][y] == alg.unit and alg.table[y][z] == x
    ]


def test_partial_product_matches_exhaustive_scan(algebras):
    for alg in algebras.values():
        for x in range(alg.n):
            for y in range(alg.n):
                candidates = _product_oracle(alg, x, y)
                assert len(candidates) <= 1
                expected = candidates[0] if candidates else None
                assert partial_product(alg, x, y) == expected


def test_partial_product_unit_case(algebras):
    # x = 1, y arbitrary has product y
    for alg in algebras.values():
        for y in range(alg.n):
            assert partial_product(alg, alg.unit, y) == y


def test_partial_product_examples(b2, diamond):
    assert partial_product(b2, b2.index_of("0"), b2.index_of("1")) == b2.index_of("0")
    assert partial_product(diamond, diamond.index_of("0"), diamond.index_of("p")) == (
        diamond.index_of("0")
    )


def test_non_unique_product_surfaces():
    alg = FiniteLAlgebra("bad", ("1", "a", "b"), 0, ((0, 1, 2), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(NonUniqueProduct):
        partial_product(alg, 0, 2)


def test_meet_examples(b2, diamond):
    one, p, q, zero = (diamond.index_of(s) for s in ("1", "p", "q", "0"))
    meets = structure_flags(diamond).meets
    assert meets[p][q] == zero
    assert meets[p][p] == p
    assert structure_flags(b2).meets[b2.index_of("1")][b2.index_of("0")] == b2.index_of("0")


def _glb_oracle(alg, a, b):
    order = derive_order(alg)
    lower = [z for z in range(alg.n) if order.leq(z, a) and order.leq(z, b)]
    for z in lower:
        if all(order.leq(w, z) for w in lower):
            return z
    return None


def test_meet_agrees_with_glb_oracle(algebras):
    for alg in algebras.values():
        meets = structure_flags(alg).meets
        for a in range(alg.n):
            for b in range(alg.n):
                m = meets[a][b]
                if m is not None:
                    assert m == _glb_oracle(alg, a, b)


def test_meet_diagnostics_record_non_glb_agreement():
    # two incomparable lower bounds z, w of {a, b}: both product-form meet
    # candidates exist and agree on z, but z is not a greatest lower bound;
    # no valid algebra this small does that, so the table goes in raw
    magma = FiniteLAlgebra(
        "magma",
        ("1", "a", "b", "z", "w"),
        0,
        (
            (0, 1, 2, 3, 4),
            (0, 0, 2, 2, 4),
            (0, 1, 0, 1, 4),
            (0, 0, 0, 0, 4),
            (0, 0, 0, 3, 0),
        ),
    )
    a, b = 1, 2
    flags = structure_flags(magma)
    assert flags.meets[a][b] is None
    assert any("not a greatest lower bound" in note for note in flags.diagnostics)


def test_structure_flags_b2(b2):
    flags = structure_flags(b2)
    assert flags.sharp and flags.discrete and flags.brouwerian and flags.meet_closed
    assert not flags.self_similar


def test_structure_flags_singleton():
    flags = structure_flags(validate([[0]], 0))
    assert flags.self_similar


def test_structure_flags_diamond(diamond):
    flags = structure_flags(diamond)
    assert flags.meet_closed and flags.sharp
    assert not flags.brouwerian and not flags.discrete and not flags.self_similar


def test_structure_flags_chain3(chain3):
    flags = structure_flags(chain3)
    assert flags.brouwerian and flags.meet_closed


def test_brouwerian_implies_meet_closed(small_corpus):
    for alg in small_corpus:
        flags = structure_flags(alg)
        assert not flags.brouwerian or flags.meet_closed


def test_self_similar_iff_singleton(small_corpus):
    for alg in small_corpus:
        assert structure_flags(alg).self_similar == (alg.n == 1)


def test_subalgebra_restricts(diamond):
    sub, elems = subalgebra(diamond, 0b0001)  # just the unit
    assert sub.n == 1 and elems == (0,)
    with pytest.raises(ValueError):
        subalgebra(diamond, 0b0010)  # p alone: no unit


def test_order_adjunction_at_defined_products(algebras):
    # z = xy defined means z <= c iff x <= y*c, for every c
    for alg in algebras.values():
        for x in range(alg.n):
            for y in range(alg.n):
                z = partial_product(alg, x, y)
                if z is None:
                    continue
                for c in range(alg.n):
                    assert alg.leq(z, c) == alg.leq(x, alg.table[y][c])
