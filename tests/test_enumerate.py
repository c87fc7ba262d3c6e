"""Enumerator oracle tests.

The independent oracle filters every raw table (all n^(n*n) of them at
n <= 3, all unit-skeleton completions at n = 4) through the axiom checker;
the backtracking generator must produce exactly the same tables.  Counts
below the oracle line are frozen from cross-validated runs.  The isomorphism
search prunes at partial tables; it is checked against a canonical-form
oracle that builds every relabelled table in full and filters the labelled
tables, and the prefix test it prunes with is checked on partial tables cut
out of every table at n = 4.
"""

from functools import cache
from itertools import permutations
from itertools import product as iproduct

import pytest

from lalg.constructions import _is_canonical, _relabelings, _search_tables, enumerate_all
from lalg.core import axiom_violations, validate
from lalg.errors import SizeTooLarge

# (labeled tables with unit at index 0, isomorphism classes)
FROZEN_COUNTS = {
    1: (1, 1),
    2: (1, 1),
    3: (8, 5),
    4: (204, 44),
    5: (12296, 632),
}


def _flat(alg):
    return tuple(v for row in alg.table for v in row)


def _oracle_tables_all(n):
    """Filter every function table; index 0 must be a logical unit."""
    out = set()
    for flat in iproduct(range(n), repeat=n * n):
        table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if any(table[0][j] != j for j in range(n)):
            continue
        if any(table[i][0] != 0 or table[i][i] != 0 for i in range(n)):
            continue
        if not axiom_violations(table, 0):
            out.add(flat)
    return out


def _oracle_tables_skeleton(n):
    """Filter every completion of the unit-law skeleton (feasible at n=4)."""
    free = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    out = set()
    for vals in iproduct(range(n), repeat=len(free)):
        table = [[0] * n for _ in range(n)]
        for j in range(n):
            table[0][j] = j
        for i in range(n):
            table[i][0] = 0
            table[i][i] = 0
        for (i, j), v in zip(free, vals):
            table[i][j] = v
        if not axiom_violations(table, 0):
            out.add(tuple(v for row in table for v in row))
    return out


def test_size_one_and_two_are_forced():
    assert len(list(enumerate_all(1))) == 1
    (only,) = enumerate_all(2)
    assert only.table == ((0, 1), (0, 0))


def test_backtracking_matches_naive_filter_at_three():
    oracle = _oracle_tables_all(3)
    generated = {_flat(a) for a in enumerate_all(3)}
    assert generated == oracle
    assert len(oracle) == FROZEN_COUNTS[3][0]


def test_backtracking_matches_skeleton_filter_at_four():
    oracle = _oracle_tables_skeleton(4)
    generated = {_flat(a) for a in enumerate_all(4)}
    assert generated == oracle
    assert len(oracle) == FROZEN_COUNTS[4][0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frozen_counts(n):
    assert sum(1 for _ in enumerate_all(n)) == FROZEN_COUNTS[n][0]
    assert sum(1 for _ in enumerate_all(n, up_to_iso=True)) == FROZEN_COUNTS[n][1]


def test_frozen_counts_at_five():
    assert sum(1 for _ in enumerate_all(5)) == FROZEN_COUNTS[5][0]
    assert sum(1 for _ in enumerate_all(5, up_to_iso=True)) == FROZEN_COUNTS[5][1]


def test_generated_algebras_validate():
    for n in (1, 2, 3, 4):
        for alg in enumerate_all(n):
            validate(alg.table, alg.unit, alg.labels, alg.name)


def _canonical_form(flat, n):
    """Oracle: least relabelled table over the permutations fixing the unit.

    Builds every relabelled table in full and takes the minimum, with no
    early exit.
    """
    best = flat
    for perm in permutations(range(1, n)):
        p = (0,) + perm
        relabeled = tuple(
            p[flat[p.index(i) * n + p.index(j)]] for i in range(n) for j in range(n)
        )
        if relabeled < best:
            best = relabeled
    return best


@cache
def _labelled_with_forms(n):
    """(flat table, oracle canonical form) for every labelled table, in order."""
    return tuple((f, _canonical_form(f, n)) for f in map(_flat, enumerate_all(n)))


def test_representatives_are_canonical():
    for n in (3, 4, 5):
        for alg in enumerate_all(n, up_to_iso=True):
            flat = _flat(alg)
            assert _canonical_form(flat, n) == flat


def test_iso_classes_cover_everything():
    # every labeled table must be a relabeling of exactly one representative
    for n in (3, 4, 5):
        reps = {_flat(a) for a in enumerate_all(n, up_to_iso=True)}
        for _, form in _labelled_with_forms(n):
            assert form in reps


@pytest.mark.parametrize("n", [3, 4, 5])
def test_iso_enumeration_is_the_oracle_filter_in_order(n):
    kept = [flat for flat, form in _labelled_with_forms(n) if form == flat]
    expected = [(flat, f"enum{n}-{k:05d}") for k, flat in enumerate(kept)]
    assert [(_flat(a), a.name) for a in enumerate_all(n, up_to_iso=True)] == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pruned_search_completes_only_canonical_tables(n):
    leaves = list(_search_tables(n, _relabelings(n)))
    assert len(leaves) == FROZEN_COUNTS[n][1]
    assert all(_canonical_form(flat, n) == flat for flat in leaves)
    assert sum(1 for _ in _search_tables(n, [])) == FROZEN_COUNTS[n][0]


def test_prefix_test_on_partial_tables_at_four():
    # Blank every subset of the free cells of every labelled table: a
    # canonical table is never beaten on a part of it, and a complete
    # non-canonical table always is.
    n = 4
    relabelings = _relabelings(n)
    free = [i * n + j for i in range(1, n) for j in range(1, n) if i != j]
    for flat, form in _labelled_with_forms(n):
        assert _is_canonical(list(flat), relabelings) == (form == flat)
        if form != flat:
            continue
        for chosen in iproduct((False, True), repeat=len(free)):
            t = list(flat)
            for pos, blank in zip(free, chosen):
                if blank:
                    t[pos] = -1
            assert _is_canonical(t, relabelings)


def test_names_are_deterministic():
    names = [a.name for a in enumerate_all(3)]
    assert names == [f"enum3-{k:05d}" for k in range(len(names))]


def test_size_bounds():
    with pytest.raises(ValueError):
        list(enumerate_all(0))
    with pytest.raises(SizeTooLarge):
        list(enumerate_all(6))
