"""Property tests: closure confluence, monotonicity, builder soundness,
primality on principal ideals, witness joins and residuals, point masks and
the atom test, the certified walk and the topology report against their
oracles, element-order invariance, file round trips."""

import tempfile
from dataclasses import replace
from itertools import permutations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lalg.constructions import (
    PosetSpec,
    enumerate_all,
    fixtures,
    ordered_sum,
    poset_algebra,
    product,
)
from lalg.core import validate
from lalg.errors import UnwritableLabel
from lalg.formats import load_algebra, save_algebra
from lalg.ideals import (
    _ideal_masks,
    _join_irreducibles,
    bits,
    close_under_rules,
    enumerate_ideals,
    quotient,
    witness_joins,
)
from lalg.laws import _principal_primality
from lalg.spectrum import (
    _minimal_generator_counts,
    at_most_one_atom,
    compact_basis_failure,
    prime_ideals,
    spectrum_facts,
)

CORPUS = list(enumerate_all(3)) + list(enumerate_all(4, up_to_iso=True))


def _closure_random_order(alg, seed_mask, rule_order):
    """Oracle: apply single closure rules in an arbitrary order to a fixpoint."""
    t = alg.table
    n = alg.n
    m = seed_mask | (1 << alg.unit)
    while True:
        before = m
        for rule in rule_order:
            add = 0
            for x in [i for i in range(n) if (m >> i) & 1]:
                row = t[x]
                for y in range(n):
                    if rule == 0 and (m >> row[y]) & 1:
                        add |= 1 << y
                    elif rule == 1:
                        add |= 1 << t[row[y]][y]
                    elif rule == 2:
                        add |= (1 << t[y][x]) | (1 << t[y][row[y]])
            m |= add
        if m == before:
            return m


def test_closure_matches_the_rule_order_oracle_on_every_seed(corpus_to_five, magma, absorption_magma):
    # the worklist against the round-robin oracle, the six rule orders in
    # turn, on every seed; the magmas are not L-algebras
    orders = list(permutations([0, 1, 2]))
    for alg in corpus_to_five + [magma, absorption_magma]:
        for seed in range(1 << alg.n):
            expected = _closure_random_order(alg, seed, orders[seed % 6])
            assert close_under_rules(alg, seed) == expected, (alg.name, seed)


@given(
    data=st.data(),
    rule_order=st.permutations([0, 1, 2]),
)
@settings(max_examples=200, deadline=None)
def test_closure_is_rule_order_independent(data, rule_order):
    alg = data.draw(st.sampled_from(CORPUS))
    seed = data.draw(st.integers(min_value=0, max_value=alg.full_mask))
    assert close_under_rules(alg, seed) == _closure_random_order(alg, seed, rule_order)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_closure_monotone_in_seed(data):
    alg = data.draw(st.sampled_from(CORPUS))
    s1 = data.draw(st.integers(min_value=0, max_value=alg.full_mask))
    s2 = s1 | data.draw(st.integers(min_value=0, max_value=alg.full_mask))
    small = close_under_rules(alg, s1)
    big = close_under_rules(alg, s2)
    assert small & ~big == 0


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_generated_ideal_is_least(data):
    alg = data.draw(st.sampled_from(CORPUS))
    seed = data.draw(st.integers(min_value=0, max_value=alg.full_mask))
    generated = close_under_rules(alg, seed)
    for mask in enumerate_ideals(alg).masks:
        if seed & ~mask == 0:
            assert generated & ~mask == 0


@st.composite
def posets(draw):
    """Random finite poset with a top, via a random relation matrix closure."""
    n = draw(st.integers(min_value=1, max_value=6))
    elements = tuple(f"e{i}" for i in range(n))
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            # i < j candidates only: indices already form a topological order
            if draw(st.booleans()):
                covers.append((elements[i], elements[j]))
    covers.extend((elements[i], elements[n - 1]) for i in range(n - 1))
    return PosetSpec(elements=elements, covers=tuple(covers), top=elements[n - 1])


@given(spec=posets())
@settings(max_examples=80, deadline=None)
def test_poset_algebra_ideals_are_upper_sets(upper_set_masks, spec):
    # poset_algebra builds without validating; the table must still pass
    alg = poset_algebra(spec)
    validate(alg.table, alg.unit, alg.labels, alg.name)
    assert set(enumerate_ideals(alg).masks) == upper_set_masks(spec)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_products_validate_and_multiply_ideals(data):
    small = [a for a in CORPUS if a.n <= 3]
    x = data.draw(st.sampled_from(small))
    y = data.draw(st.sampled_from(small))
    prod = product(x, y)
    validate(prod.table, prod.unit, prod.labels, prod.name)
    assert len(enumerate_ideals(prod)) == len(enumerate_ideals(x)) * len(
        enumerate_ideals(y)
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ordered_sums_validate(data):
    small = [a for a in CORPUS if a.n <= 3]
    x = data.draw(st.sampled_from(small))
    y = data.draw(st.sampled_from(small))
    s = ordered_sum(x, y)
    validate(s.table, s.unit, s.labels, s.name)
    assert s.n == x.n + y.n - 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_join_is_commutative_and_idempotent(data):
    alg = data.draw(st.sampled_from(CORPUS))
    lat = enumerate_ideals(alg)
    i = data.draw(st.integers(min_value=0, max_value=len(lat) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(lat) - 1))
    assert lat.join(i, j) == lat.join(j, i)
    assert lat.join(i, i) == i
    # the meet is the intersection: index raises KeyError unless the family holds it
    lat.index(lat.masks[i] & lat.masks[j])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_absorption(data):
    alg = data.draw(st.sampled_from(CORPUS))
    lat = enumerate_ideals(alg)
    i = data.draw(st.integers(min_value=0, max_value=len(lat) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(lat) - 1))
    masks = lat.masks
    assert lat.index(masks[i] & masks[lat.join(i, j)]) == i
    assert lat.join(i, lat.index(masks[i] & masks[j])) == i


FIXTURES = [f.algebra for f in fixtures()]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_principal_primality_matches_the_scans(data, prime_oracles, meet_irreducibles):
    """On products and ordered sums of small fixtures, the principal forms
    equal the m^2 scans, and the meet-primes are the meet-irreducibles and
    the points of the spectrum."""
    small = [a for a in FIXTURES if a.n <= 5]
    build = data.draw(st.sampled_from([product, ordered_sum]))
    alg = build(data.draw(st.sampled_from(small)), data.draw(st.sampled_from(small)))
    lat = enumerate_ideals(alg)
    by_residuation, by_meets = prime_oracles
    forms = [_principal_primality(lat, p) for p in range(len(lat))]
    assert forms == [
        {"residuation_form": by_residuation(lat, p), "meet_form": by_meets(lat, p)}
        for p in range(len(lat))
    ]
    meet_primes = [p for p, form in enumerate(forms) if form["meet_form"]]
    assert meet_primes == meet_irreducibles(lat.masks, alg.full_mask)
    assert meet_primes == sorted(prime_ideals(lat).points)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_column_joins_and_bit_parallel_residuals_match_the_oracles(data, lattice_oracles):
    """On products and ordered sums of small fixtures, the witness joins
    walked column by column along lower neighbours equal the all-pairs
    oracle, and the residual read off up[e] equals the element-by-element
    scan, on every pair of ideals and on arbitrary subsets."""
    small = [a for a in FIXTURES if a.n <= 5]
    build = data.draw(st.sampled_from([product, ordered_sum]))
    alg = build(data.draw(st.sampled_from(small)), data.draw(st.sampled_from(small)))
    lat = enumerate_ideals(alg)
    all_pairs, scan = lattice_oracles
    assert {(i, j): w for i, j, w in witness_joins(lat)} == all_pairs(lat)
    for imask in lat.masks:
        for jmask in lat.masks:
            assert lat._residuation_mask(imask, jmask) == scan(lat, imask, jmask)
    subsets = st.integers(min_value=0, max_value=alg.full_mask)
    for _ in range(10):
        imask, jmask = data.draw(subsets), data.draw(subsets)
        assert lat._residuation_mask(imask, jmask) == scan(lat, imask, jmask)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_point_masks_and_the_atom_test_match_the_scans(data, prime_oracles, subdirectly_irreducible):
    """On products and ordered sums of small fixtures, the point masks read
    off the principal masks are the meet-prime ideals of the m^2 scan, and
    the atom test on every proper quotient is the monolith scan of its
    lattice."""
    small = [a for a in FIXTURES if a.n <= 5]
    build = data.draw(st.sampled_from([product, ordered_sum]))
    alg = build(data.draw(st.sampled_from(small)), data.draw(st.sampled_from(small)))
    lat = enumerate_ideals(alg)
    _, by_meets = prime_oracles
    assert spectrum_facts(alg, {})[1] == tuple(mask for p, mask in enumerate(lat.masks) if by_meets(lat, p))
    for p in lat.proper_indices():
        quot = quotient(alg, lat.masks[p]).algebra
        assert at_most_one_atom(quot, {}) == subdirectly_irreducible(enumerate_ideals(quot))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_certified_walk_and_topology_match_the_oracles(
    data, magma, absorption_magma, ideal_walk_oracle, topology_oracles
):
    """On products and ordered sums of small fixtures and on the two magmas,
    the walk certified by its k points returns the (mask, S) pairs of the
    walk gated leaf by leaf, and the basis check along lower neighbours and
    the generator counts over down-sets equal their scans over ideals."""
    small = [a for a in FIXTURES if a.n <= 5]
    build = data.draw(st.sampled_from([product, ordered_sum, None]))
    if build is None:
        alg = data.draw(st.sampled_from([magma, absorption_magma]))
    else:
        alg = build(data.draw(st.sampled_from(small)), data.draw(st.sampled_from(small)))
    principal = tuple(close_under_rules(alg, 1 << x) for x in range(alg.n))
    joinirr = _join_irreducibles(alg, principal)
    walk = _ideal_masks(alg, principal, joinirr)
    assert sorted(walk) == sorted(ideal_walk_oracle(alg, principal, joinirr))
    basis_scan, counts_by_joins = topology_oracles
    spec = prime_ideals(enumerate_ideals(alg))
    assert compact_basis_failure(spec) == basis_scan(spec)
    opens = list(spec.opens)
    opens[data.draw(st.integers(min_value=0, max_value=len(opens) - 1))] = data.draw(
        st.integers(min_value=0, max_value=spec.all_points_mask)
    )
    planted = replace(spec, opens=tuple(opens))
    assert compact_basis_failure(planted) == basis_scan(planted)
    assert _minimal_generator_counts(spec.lattice) == counts_by_joins(spec.lattice)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ideals_follow_element_order(data):
    """Relabelling and reordering the elements permutes the ideal masks."""
    alg = data.draw(st.sampled_from(FIXTURES))
    if data.draw(st.booleans()):
        alg = product(alg, data.draw(st.sampled_from([a for a in FIXTURES if a.n <= 3])))
    order = data.draw(st.permutations(range(alg.n)))  # new index i is old order[i]
    new_of = {old: new for new, old in enumerate(order)}
    shuffled = validate(
        [[new_of[alg.table[a][b]] for b in order] for a in order],
        new_of[alg.unit],
        labels=[f"e{alg.label(old)}" for old in order],
        name=f"{alg.name}-shuffled",
    )
    lat = enumerate_ideals(alg)
    moved = {sum(1 << new_of[x] for x in bits(m)) for m in lat.masks}
    shuffled_lat = enumerate_ideals(shuffled)
    assert set(shuffled_lat.masks) == moved
    assert prime_ideals(shuffled_lat).point_count == prime_ideals(lat).point_count


# any character UTF-8 can carry, with the separators of the line format
# drawn often
LABELS = st.text(st.one_of(st.sampled_from(" #:\t"), st.characters(codec="utf-8")), max_size=4)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_saved_algebras_read_back_or_are_refused(data):
    base = data.draw(st.sampled_from(CORPUS))
    labels = data.draw(st.lists(LABELS, min_size=base.n, max_size=base.n, unique=True))
    alg = validate(base.table, base.unit, labels=labels, name=data.draw(LABELS))
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in (".lalg", ".json"):
            path = Path(tmp) / f"saved{suffix}"
            try:
                save_algebra(alg, path)
            except UnwritableLabel:
                assert suffix == ".lalg", "a .json save always reads back"
                assert not path.exists()
                continue
            back = load_algebra(path)
            # every saved algebra has a name line, so it keeps its name,
            # X included; only a file without one takes the stem
            assert (back.name, back.labels, back.unit, back.table) == (
                alg.name, alg.labels, alg.unit, alg.table
            )
