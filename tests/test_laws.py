import itertools

import pytest

from lalg.constructions import (
    Fixture,
    PosetSpec,
    enumerate_all,
    fixtures,
    poset_algebra,
    product_pairs,
)
from lalg.core import FiniteLAlgebra, structure_flags
from lalg.formats import algebra_to_document, document_from_json_object
from lalg.ideals import enumerate_ideals, labels_of, mask_of
from lalg.laws import (
    LAWS,
    _PARTITION_SWEEP_LIMIT,
    _compatible_partitions,
    all_pass,
    law_ids,
    replay,
    run_law,
    run_suite,
)


@pytest.fixture(scope="module")
def full_corpus():
    corpus = list(fixtures())
    seen = {f.name for f in corpus}
    corpus += [p for p in product_pairs() if p.name not in seen]
    return corpus


@pytest.fixture(scope="module")
def full_reports(full_corpus):
    return run_suite(full_corpus)


def test_law_ids_are_unique():
    assert len(set(law_ids())) == len(LAWS)


def test_all_laws_pass_on_fixture_corpus(full_reports):
    fails = [r for r in full_reports if r.verdict == "fail"]
    assert not fails, [(r.law, r.corpus) for r in fails]
    assert all_pass(full_reports)


def test_report_rows_cover_the_grid(full_corpus, full_reports):
    assert len(full_reports) == len(full_corpus) * len(LAWS)
    keys = [(r.law, r.corpus) for r in full_reports]
    assert keys == sorted(keys)


def test_diamond_point_map_detail(full_reports):
    row = next(
        r
        for r in full_reports
        if r.law == "point-map.brouwerian" and r.corpus == "diamond"
    )
    assert row.verdict == "pass"
    assert row.detail == "not injective, not Brouwerian"


def test_product_law_applies_only_to_products(full_reports):
    rows = {r.corpus: r for r in full_reports if r.law == "product.factorization"}
    assert rows["B2xB2"].instances > 0
    assert rows["B2"].instances == 0
    assert rows["B2"].detail == "not a product fixture"


def test_reports_deterministic_modulo_timing(full_corpus):
    a = run_suite(full_corpus, laws=["ideal-lattice.distributive", "spectrum.spatial"])
    b = run_suite(full_corpus, laws=["ideal-lattice.distributive", "spectrum.spatial"])
    strip = lambda rs: [(r.law, r.corpus, r.verdict, r.instances, r.detail, r.witness) for r in rs]
    assert strip(a) == strip(b)


def test_unknown_law_id_rejected(full_corpus):
    with pytest.raises(KeyError):
        run_suite(full_corpus[:1], laws=["no.such.law"])


BAD_ORDER = FiniteLAlgebra(
    "bad-order",
    ("1", "a", "b", "c"),
    0,
    ((0, 1, 2, 3), (0, 0, 0, 3), (0, 1, 0, 0), (0, 1, 2, 0)),
)


def test_failures_carry_replayable_witnesses():
    report = run_law("order.partial-order", Fixture("bad-order", BAD_ORDER))
    assert report.verdict == "fail"
    assert report.witness is not None
    assert "algebra_document" in report.witness
    again = replay(report)
    assert again.verdict == "fail"
    assert again.law == report.law


def test_axiom_law_fails_on_invalid_table():
    broken = FiniteLAlgebra("broken", ("0", "1"), 1, ((0, 1), (0, 1)))
    report = run_law("validate.axioms", Fixture("broken", broken))
    assert report.verdict == "fail"
    assert report.witness and report.witness["violations"]


def test_algebra_doc_round_trip(diamond):
    # the witness snapshot and its replay use the formats pair
    doc = algebra_to_document(diamond).to_json_object()
    back = document_from_json_object(doc).to_algebra(validated=True)
    assert back.table == diamond.table
    assert back.labels == diamond.labels
    assert back.unit == diamond.unit


def test_congruence_law_skips_partition_sweep_on_big_carriers(full_reports):
    row = next(
        r
        for r in full_reports
        if r.law == "congruence.bijection" and r.corpus == "diamondxdiamond"
    )
    assert row.verdict == "pass"
    assert "partition sweep skipped" in (row.detail or "")


def _iter_partitions(n):
    """Every set partition of range(n), as lists of classes (test-only oracle)."""
    groups = []

    def rec(k):
        if k == n:
            yield groups
            return
        for g in groups:
            g.append(k)
            yield from rec(k + 1)
            g.pop()
        groups.append([k])
        yield from rec(k + 1)
        groups.pop()

    yield from rec(0)


def _full_sweep(t):
    """The unpruned sweep: build all B(n) partitions, keep the compatible ones
    as the class of each element, the classes numbered by their least member."""
    n = len(t)
    count = 0
    found = set()
    for classes in _iter_partitions(n):
        count += 1
        class_of = [0] * n
        for c, cls in enumerate(classes):
            for x in cls:
                class_of[x] = c
        if all(
            class_of[t[z][x]] == class_of[t[z][y]] and class_of[t[x][z]] == class_of[t[y][z]]
            for cls in classes
            for x in cls
            for y in cls
            for z in range(n)
        ):
            found.add(tuple(class_of))
    return count, found


def _poset_table(n, leq):
    """The implication algebra of a poset with its top at 0: x*y = 0 when x <= y, else y."""
    return tuple(tuple(0 if leq(x, y) else y for y in range(n)) for x in range(n))


def _anti_table(k):
    # k atoms under a top
    return _poset_table(k + 1, lambda x, y: x == y or y == 0)


def _power_table(base, k):
    # the k-fold direct product, computed componentwise (unit at index 0)
    elems = list(itertools.product(range(len(base)), repeat=k))
    index = {e: i for i, e in enumerate(elems)}
    return tuple(
        tuple(index[tuple(base[a][b] for a, b in zip(x, y))] for y in elems) for x in elems
    )


BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def test_pruned_partition_sweep_matches_the_full_sweep(full_corpus):
    tables = [f.algebra.table for f in full_corpus if f.algebra.n <= 8]
    tables += [_anti_table(k) for k in (5, 6, 7)]
    tables.append(_power_table(_anti_table(1), 3))  # B2^3
    tables += [a.table for a in enumerate_all(4)]
    for t in tables:
        decided, leaves = _compatible_partitions(t)
        count, found = _full_sweep(t)
        assert decided == count == BELL[len(t)]
        assert len(leaves) == len(set(leaves))
        assert set(leaves) == found, t


def test_congruence_law_decides_every_partition(full_corpus, full_reports):
    # one instance per ideal and one per set partition, whether it reached a
    # leaf of the sweep or was decided with a pruned prefix
    rows = {r.corpus: r for r in full_reports if r.law == "congruence.bijection"}
    small = [f for f in full_corpus if f.algebra.n <= _PARTITION_SWEEP_LIMIT]
    assert {f.algebra.n for f in small} >= {1, 2, 3, 4, 5, 6, 7, 8}
    for f in small:
        m = len(enumerate_ideals(f.algebra))
        assert rows[f.name].instances == m + BELL[f.algebra.n], f.name


def test_congruence_sweep_fails_when_an_ideal_is_withheld(monkeypatch, chain3):
    # the law reads a lattice without {1,a}: every per-ideal check still
    # passes, and only the partition sweep finds a congruence no ideal gives
    from lalg import laws

    full = enumerate_ideals(chain3).masks
    withheld = mask_of([chain3.unit, chain3.index_of("a")])
    assert withheld in full
    real = laws.Context.lattice.func

    def without_1a(ctx):
        lat = real(ctx)
        lat.masks = tuple(m for m in lat.masks if m != withheld)
        return lat

    monkeypatch.setattr(laws.Context, "lattice", property(without_1a))
    report = run_law("congruence.bijection", Fixture("chain3", chain3))
    assert report.verdict == "fail"
    assert report.instances == len(full) - 1 + BELL[chain3.n]
    assert report.witness["problem"] == "congruence/ideal families differ"
    assert (report.witness["congruences"], report.witness["ideals"]) == (len(full), len(full) - 1)


def test_exhaustive_small_corpus_all_pass(small_corpus):
    corpus = [Fixture(a.name, a) for a in small_corpus]
    reports = run_suite(corpus)
    assert all_pass(reports)
    assert len(reports) == len(corpus) * len(LAWS)


def test_ideal_lattice_above_the_carrier_cap_is_checked():
    # 7 atoms under a top: 128 ideals, twice the 64-element carrier cap; the
    # residuation table is checked as a table, not validated as an algebra
    atoms = tuple(f"a{i}" for i in range(7))
    anti7 = poset_algebra(
        PosetSpec(elements=("t",) + atoms, covers=tuple((a, "t") for a in atoms), top="t")
    )
    report = run_law("ideal-lattice.is-l-algebra", Fixture("anti7", anti7))
    assert report.verdict == "pass", report.witness
    assert report.instances == 128 * 128


def test_certified_lattice_laws_on_anti8():
    # 8 atoms under a top: 256 ideals and 8 join-irreducibles, where the
    # m^3 loops took seconds; the certificates check m + k down-sets and
    # joins, and k^2 + 1 residuals
    atoms = tuple(f"a{i}" for i in range(8))
    anti8 = poset_algebra(
        PosetSpec(elements=("t",) + atoms, covers=tuple((a, "t") for a in atoms), top="t")
    )
    reports = run_suite(
        [Fixture("anti8", anti8)],
        laws=["ideal-lattice.distributive", "join.witness-form", "residuation.adjunction"],
    )
    assert [(r.law, r.verdict, r.instances, r.detail) for r in reports] == [
        ("ideal-lattice.distributive", "pass", 256 + 8, "256 ideals"),
        ("join.witness-form", "pass", 256 * 257 // 2, None),
        ("residuation.adjunction", "pass", 8 * 8 + 1, None),
    ]


def test_lattice_is_algebra_law_fails_on_planted_residuals(monkeypatch, b2):
    # every residual the bottom: {1}*{1} is no longer the unit X, so the
    # table breaks x*x = 1
    from lalg.ideals import IdealLattice

    monkeypatch.setattr(
        IdealLattice, "_residuation_mask", lambda self, imask, jmask: self.masks[self.bottom]
    )
    report = run_law("ideal-lattice.is-l-algebra", Fixture("B2", b2))
    assert report.verdict == "fail"
    assert report.witness["error"] == "AxiomViolation"


def test_non_unique_product_fails_the_uniqueness_law():
    # b*a = b*b = 1 with a <= b and b <= b: two witnesses for the product
    # of 1 and b; validate does not look for this, product.uniqueness does
    bad = FiniteLAlgebra("bad", ("1", "a", "b"), 0, ((0, 1, 2), (0, 0, 0), (0, 0, 0)))
    report = run_law("product.uniqueness", Fixture("bad", bad))
    assert report.verdict == "fail"
    assert report.witness["error"] == "NonUniqueProduct"
    assert report.witness["witnesses"] == ["a", "b"]


def test_quotient_law_fails_on_a_planted_axiom_break(monkeypatch, b2):
    # quotient does not validate its table; quotient.morphism runs the
    # axioms on every quotient and names the violations before comparing
    # the projection
    from dataclasses import replace

    from lalg import ideals

    real = ideals.quotient

    def broken(alg, ideal):
        q = real(alg, ideal)
        quot = q.algebra
        x = next(i for i in range(quot.n) if i != quot.unit)
        table = [list(row) for row in quot.table]
        table[x][x] = x  # x*x = 1 fails
        return replace(q, algebra=replace(quot, table=tuple(map(tuple, table))))

    monkeypatch.setattr(ideals, "quotient", broken)
    report = run_law("quotient.morphism", Fixture("B2", b2))
    assert report.verdict == "fail"
    assert report.witness["ideal"] == ("1",)
    assert report.witness["violations"] == ["[unit] x*x != 1 at x=0"]


def test_congruence_law_fails_on_an_incompatible_congruence_above_the_sweep_limit(algebras):
    # chain3 x chain3 with (1,a)*(1,b) set to the unit: modulo {(1,1)} the
    # relation is still an equivalence ((1,a) ~ (1,b)), but (a,a)*(1,a) and
    # (a,a)*(1,b) fall into different classes; n = 9 skips the partition
    # sweep, so only the per-ideal check can see it
    from lalg.constructions import product

    base = product(algebras["chain3"], algebras["chain3"])
    assert base.n == 9 and base.labels[1:3] == ("(1,a)", "(1,b)")
    table = [list(row) for row in base.table]
    table[1][2] = base.unit
    planted = FiniteLAlgebra("planted", base.labels, base.unit, tuple(map(tuple, table)))
    report = run_law("congruence.bijection", Fixture("planted", planted))
    assert report.verdict == "fail"
    assert report.instances == 1
    assert report.witness["ideal"] == ("(1,1)",)
    assert report.witness["problem"] == "not compatible"
    assert report.witness["triple"] == ["(1,b)", "(1,a)", "(a,a)"]


def test_quasiprime_law_fails_when_a_prime_is_not_quasi_prime(monkeypatch, chain3):
    # every non-top element of chain3 is prime; report none as quasi-prime
    from lalg import laws

    monkeypatch.setattr(laws, "quasi_prime_elements", lambda lat: ())
    report = run_law("prime-elements.quasiprime", Fixture("chain3", chain3))
    assert report.verdict == "fail"
    assert report.witness["element"] == "a"
    assert report.witness["problem"] == "prime but not quasi-prime"


def test_compact_basis_law_fails_on_a_planted_open(monkeypatch, omega3):
    # U_X emptied: it is no longer the union of the principal opens inside X
    from dataclasses import replace

    from lalg import laws

    real = laws.prime_ideals

    def planted(lat):
        spec = real(lat)
        opens = list(spec.opens)
        opens[lat.top] = 0
        return replace(spec, opens=tuple(opens))

    monkeypatch.setattr(laws, "prime_ideals", planted)
    report = run_law("spectrum.compact-basis", Fixture("omega3", omega3))
    assert report.verdict == "fail"
    assert report.instances == 7
    assert report.witness["ideal"] == tuple(omega3.labels[i] for i in range(omega3.n))


def test_quasi_primes_are_computed_once_per_algebra(monkeypatch, omega3):
    from lalg import laws

    calls = []
    real = laws.quasi_prime_elements
    monkeypatch.setattr(laws, "quasi_prime_elements", lambda lat: calls.append(1) or real(lat))
    reports = run_suite(
        [Fixture("omega3", omega3)], laws=["prime-elements.quasiprime", "prime-elements.attachment"]
    )
    assert [r.verdict for r in reports] == ["pass", "pass"]
    assert len(calls) == 1


def test_meets_are_computed_once_per_algebra(monkeypatch, algebras):
    # the meet laws and the point map read the meet table of structure_flags,
    # which finds each product (a*b)a once
    from lalg import core

    calls = []
    real = core.partial_product
    monkeypatch.setattr(core, "partial_product", lambda *args: calls.append(1) or real(*args))
    meet_laws = [
        "meet.glb",
        "meet.brouwerian-distributive",
        "principal-ideals.meet-join",
        "point-map.brouwerian",
    ]
    for name, alg in algebras.items():
        reports = run_suite([Fixture(name, alg)], laws=meet_laws)
        assert all(r.verdict == "pass" for r in reports), name
        assert len(calls) == alg.n * alg.n, name
        calls.clear()


def test_lattice_is_algebra_law_falls_back_to_every_column_without_the_adjunction(
    monkeypatch, algebras, meet_irreducibles, residuation_table
):
    # omega3 has seven ideals; the second, {1,x}, is neither the top nor
    # meet-irreducible.  Planting the residual of I \ J = {x2} as
    # {y,1,x,x2} instead of {y,1,x} keeps the unit laws, antisymmetry, the
    # order and the exchange identity at z = X and at every
    # meet-irreducible; the identity breaks only at z = {1,x}.  The residual
    # is no longer a right adjoint, so residuation.adjunction fails, and
    # is-l-algebra checks every column.  The plant is keyed on I \ J, which
    # is all a residual depends on: the lattice computes one per difference.
    from lalg.core import axiom_violations
    from lalg.ideals import IdealLattice
    from lalg.laws import _principal_primality

    alg = algebras["omega3"]
    lat = enumerate_ideals(alg)
    outside, honest, wrong = mask_of([alg.index_of("x2")]), lat.masks[2], lat.masks[4]
    assert lat.residual(lat.masks[3], lat.masks[2]) == 2 and lat.masks[3] & ~lat.masks[2] == outside
    real = IdealLattice._residuation_mask
    monkeypatch.setattr(
        IdealLattice,
        "_residuation_mask",
        lambda self, imask, jmask: wrong if imask & ~jmask == outside else real(self, imask, jmask),
    )
    fixture = Fixture("omega3", alg)
    table = residuation_table(lat)
    columns = [lat.top, *meet_irreducibles(lat.masks, alg.full_mask)]
    assert columns[1:] == [p for p in range(len(lat)) if _principal_primality(lat, p)["meet_form"]]
    assert 1 not in columns and honest != wrong
    assert not axiom_violations(table, lat.top, columns)
    violations = axiom_violations(table, lat.top)
    assert violations and all(v.axiom == "exchange" and v.witness[2] == 1 for v in violations)

    assert run_law("residuation.adjunction", fixture).verdict == "fail"
    report = run_law("ideal-lattice.is-l-algebra", fixture)
    assert report.verdict == "fail"
    assert report.witness["error"] == "AxiomViolation"
    assert report.witness["violations"] == [str(v) for v in violations]


RESIDUATION_LAWS = ["ideal-lattice.is-l-algebra", "residuation.adjunction"]


def _plant_residual(monkeypatch, outside, wrong):
    """Plant ``wrong`` as I*J for every pair with I \\ J = ``outside``: a
    residual depends on I \\ J only, and the lattice computes one per
    distinct difference, so a plant keyed on one pair would reach the laws
    only where that pair comes first."""
    from lalg.ideals import IdealLattice

    real = IdealLattice._residuation_mask
    monkeypatch.setattr(
        IdealLattice,
        "_residuation_mask",
        lambda self, imask, jmask: wrong if imask & ~jmask == outside else real(self, imask, jmask),
    )


@pytest.mark.parametrize("name", ["B2xB2", "omega5", "B2xchain3"])
def test_a_wrong_residual_at_any_pair_fails_a_residuation_law(monkeypatch, full_corpus, name):
    # each (I, J) in turn, with every ideal other than I*J planted as its
    # residual: residuation.adjunction reads only the k^2 + 1 irreducible
    # pairs, so a plant elsewhere is left to is-l-algebra, which checks
    # each residual it reads against {x | <x> n I <= J}
    alg = next(f.algebra for f in full_corpus if f.name == name)
    lat = enumerate_ideals(alg)
    honest = {(a, b): lat.residual(a, b) for a in lat.masks for b in lat.masks}
    plants = {(a & ~b, w) for (a, b), r in honest.items() for w in range(len(lat)) if w != r}
    assert len(plants) == {"B2xB2": 18, "omega5": 320, "B2xchain3": 65}[name]
    for outside, w in sorted(plants):
        _plant_residual(monkeypatch, outside, lat.masks[w])
        reports = run_suite([Fixture(name, alg)], laws=RESIDUATION_LAWS)
        monkeypatch.undo()
        assert any(r.verdict == "fail" for r in reports), (outside, w)


def test_a_wrong_residual_off_the_irreducible_pairs_fails_is_l_algebra(
    monkeypatch, full_corpus, meet_irreducibles, residuation_table
):
    # B2xchain3: the residual of I \ J = {(0,1),(0,a)} planted as the
    # ideal at index 2 instead of 3.  No join-irreducible j and
    # meet-irreducible q have that difference, so residuation.adjunction
    # passes, and the planted table keeps the unit laws, antisymmetry and
    # the exchange identity at the top and every meet-irreducible; only the
    # check of each residual against {x | <x> n I <= J} fails it
    from lalg.core import axiom_violations

    alg = next(f.algebra for f in full_corpus if f.name == "B2xchain3")
    lat = enumerate_ideals(alg)
    outside = mask_of([alg.index_of("(0,1)"), alg.index_of("(0,a)")])
    assert lat.residuals()[outside] == 3
    _plant_residual(monkeypatch, outside, lat.masks[2])
    table = residuation_table(lat)
    assert not axiom_violations(table, lat.top, [lat.top, *meet_irreducibles(lat.masks, alg.full_mask)])
    reports = {r.law: r for r in run_suite([Fixture(alg.name, alg)], laws=RESIDUATION_LAWS)}
    assert reports["residuation.adjunction"].verdict == "pass"
    report = reports["ideal-lattice.is-l-algebra"]
    assert report.verdict == "fail"
    assert report.witness["problem"] == "residual is not {x | <x> n I <= J}"
    pair = (report.witness["I"], report.witness["J"])
    assert pair == next((labels_of(alg, a), labels_of(alg, b)) for a in lat.masks for b in lat.masks if a & ~b == outside)


@pytest.mark.parametrize("name", ["chain3", "B2xB2", "omega3", "omega5"])
def test_a_residual_that_breaks_order_equals_inclusion_fails_a_law(monkeypatch, algebras, name):
    # order = inclusion is no longer checked entry by entry once the
    # adjunction holds.  x*x = 1 fixes I*J = X wherever I \ J is empty, so a
    # plant that breaks the order and keeps that unit law sets X as the
    # residual of a non-empty I \ J; every such plant fails is-l-algebra
    alg = algebras[name]
    lat = enumerate_ideals(alg)
    full = alg.full_mask
    outsides = {a & ~b for a in lat.masks for b in lat.masks} - {0}
    assert outsides
    for outside in sorted(outsides):
        _plant_residual(monkeypatch, outside, full)
        residuals = lat.residuals()
        assert any(residuals[a & ~b] == lat.top and a & ~b for a in lat.masks for b in lat.masks)
        reports = {r.law: r for r in run_suite([Fixture(name, alg)], laws=RESIDUATION_LAWS)}
        monkeypatch.undo()
        assert reports["ideal-lattice.is-l-algebra"].verdict == "fail", outside


def test_the_adjunction_computes_k_squared_residuals_and_the_bottoms(monkeypatch, fixture_map):
    # on a lattice certified distributive, one residual per join-irreducible
    # j and meet-irreducible q, and the bottom's, each an instance
    from lalg.ideals import IdealLattice
    from lalg.laws import Context, _check_residuation

    real = IdealLattice._residuation_mask
    calls = []
    for name, fixture in fixture_map.items():
        ctx = Context(fixture, {})
        assert isinstance(ctx.distributive, int), name
        k = len(ctx.lattice.join_irreducibles)
        assert sum(ctx.primality(p)["meet_form"] for p in range(len(ctx.lattice))) == k, name
        monkeypatch.setattr(
            IdealLattice, "_residuation_mask", lambda self, a, b: calls.append((a, b)) or real(self, a, b)
        )
        assert _check_residuation(ctx) == (k * k + 1, None, None), name
        assert len(calls) == k * k + 1, name
        monkeypatch.undo()
        calls.clear()


def test_a_law_run_leaves_no_m_by_m_structure_on_the_lattice():
    # anti6 has 64 ideals: after every law has run, no attribute of the
    # shared lattice is a table of m rows of m entries, and no dict has m^2
    # keys; the residuals live inside the laws that read them
    from lalg.ideals import IdealLattice
    from lalg.laws import Context, _run_one

    assert not hasattr(IdealLattice, "residuation_table")
    atoms = tuple(f"a{i}" for i in range(6))
    anti6 = poset_algebra(PosetSpec(elements=("t",) + atoms, covers=tuple((a, "t") for a in atoms), top="t"))
    ctx = Context(Fixture("anti6", anti6), {})
    assert all(_run_one(law, ctx, "anti6").verdict == "pass" for law in LAWS)
    lat, m = ctx.lattice, 64
    assert len(lat) == m
    for name, value in vars(lat).items():
        if isinstance(value, dict):
            assert len(value) < m * m, name
        elif isinstance(value, (tuple, list)) and len(value) == m:
            assert not all(isinstance(row, (tuple, list)) and len(row) == m for row in value), name


def test_lattice_is_algebra_law_checks_the_top_and_every_meet_irreducible_column(
    monkeypatch, algebras, meet_irreducibles
):
    # the columns the law hands to axiom_violations once the adjunction holds
    from lalg import laws

    seen = []
    real = laws.axiom_violations
    monkeypatch.setattr(
        laws,
        "axiom_violations",
        lambda table, unit, columns=None: seen.append(columns) or real(table, unit, columns),
    )
    for name, alg in algebras.items():
        seen.clear()
        assert run_law("ideal-lattice.is-l-algebra", Fixture(name, alg)).verdict == "pass", name
        lat = enumerate_ideals(alg)
        assert seen == [[lat.top, *meet_irreducibles(lat.masks, alg.full_mask)]], name


def test_meet_irreducible_columns_decide_the_exchange_identity(
    corpus_to_five, meet_irreducibles, residuation_table
):
    # on every fixture, every table with n <= 4 and the 632 classes at n = 5
    # the k + 1 columns give the verdict of the full axiom check, and the
    # principal meet form picks them
    from lalg.core import axiom_violations
    from lalg.laws import _principal_primality

    for alg in corpus_to_five:
        lat = enumerate_ideals(alg)
        table = residuation_table(lat)
        columns = [lat.top, *meet_irreducibles(lat.masks, alg.full_mask)]
        meet_primes = [p for p in range(len(lat)) if _principal_primality(lat, p)["meet_form"]]
        assert columns[1:] == meet_primes, alg.name
        assert len(columns) == len(lat.join_irreducibles) + 1, alg.name
        reduced = axiom_violations(table, lat.top, columns)
        assert reduced == axiom_violations(table, lat.top), alg.name


def test_one_quotient_per_ideal_in_a_law_run(monkeypatch, full_corpus):
    # quotient.morphism, congruence.bijection, prime.iff-quotient-irreducible
    # and relative-spectrum.bijection share X/I: one quotient and one
    # congruence per (algebra, ideal), and no quotient gets a lattice; the
    # 80 quotients have 31 operation tables, their spectrum facts are
    # requested 144 times (64 proper ideals, then all 80), and the 29 tables
    # the sub-algebras have not filled first are computed once each
    from lalg import ideals, spectrum

    quotients, congruences, lattices, requested, cold = [], [], [], [], []
    real_quotient, real_congruence = ideals.quotient, ideals.congruence_of
    real_init, real_facts, real_points = ideals.IdealLattice.__init__, spectrum.spectrum_facts, spectrum.point_masks

    def is_quotient(alg):
        return any(alg is quot for _, _, quot in quotients)

    def counted_quotient(alg, imask):
        q = real_quotient(alg, imask)
        quotients.append((alg.name, imask, q.algebra))
        return q

    def counted_init(self, alg, *args):
        if is_quotient(alg):
            lattices.append(alg)
        real_init(self, alg, *args)

    def counted_facts(alg, facts):
        if is_quotient(alg):
            requested.append((alg.unit, alg.table))
        return real_facts(alg, facts)

    def counted_points(alg, *args):
        if is_quotient(alg):
            cold.append((alg.unit, alg.table))
        return real_points(alg, *args)

    monkeypatch.setattr(ideals, "quotient", counted_quotient)
    monkeypatch.setattr(ideals, "congruence_of", lambda *a: congruences.append(1) or real_congruence(*a))
    monkeypatch.setattr(ideals.IdealLattice, "__init__", counted_init)
    monkeypatch.setattr(spectrum, "spectrum_facts", counted_facts)
    monkeypatch.setattr(spectrum, "point_masks", counted_points)
    reports = run_suite(full_corpus)
    assert all_pass(reports)
    pairs = {(name, members) for name, members, _ in quotients}
    assert len(pairs) == len(quotients) == 80
    assert len(congruences) == 80
    assert lattices == []
    assert len(requested) == 144 and len(set(requested)) == 31
    assert len(cold) == len(set(cold)) == 29


def _spectrum_fact_counts(monkeypatch, corpus, laws=None):
    """Run the suite and return the algebras that got a lattice, the tables
    whose spectrum facts were requested, and the tables computed cold."""
    from lalg import ideals, spectrum

    lattices, requested, cold = [], [], []
    real_init, real_facts, real_join_irreducibles = (
        ideals.IdealLattice.__init__,
        spectrum.spectrum_facts,
        spectrum._join_irreducibles,
    )

    def counted_init(self, alg, *args):
        lattices.append(alg)
        real_init(self, alg, *args)

    def counted_facts(alg, facts):
        requested.append((alg.unit, alg.table))
        return real_facts(alg, facts)

    def counted_join_irreducibles(alg, principal):
        # in spectrum only the facts read the join-irreducibles off the
        # principal masks; a lattice finds its own in ideals
        cold.append((alg.unit, alg.table))
        return real_join_irreducibles(alg, principal)

    monkeypatch.setattr(ideals.IdealLattice, "__init__", counted_init)
    monkeypatch.setattr(spectrum, "spectrum_facts", counted_facts)
    monkeypatch.setattr(spectrum, "_join_irreducibles", counted_join_irreducibles)
    assert all_pass(run_suite(corpus, laws))
    return lattices, requested, cold


def test_one_enumeration_per_table_in_a_law_run(monkeypatch, full_corpus):
    # one run over the default corpus builds 19 ideal lattices, of its 16
    # algebras and of the 3 operation tables among the 18 factors of its 9
    # products, and none of a quotient or a sub-algebra; their spectra are
    # 224 requests for spectrum facts (64 + 80 quotients, 80 sub-algebras)
    # on 36 operation tables, and each table is computed once
    lattices, requested, cold = _spectrum_fact_counts(monkeypatch, full_corpus)
    owners = [f.algebra for f in full_corpus] + [x for f in full_corpus if f.factors for x in f.factors]
    assert sum(1 for f in full_corpus if f.factors) == 9
    assert len(lattices) == 19 and all(any(alg is a for a in owners) for alg in lattices)
    assert len(requested) == 224
    assert len(cold) == len(set(cold)) == len(set(requested)) == 36


def test_one_sub_spectrum_per_table_in_a_law_run(monkeypatch, full_corpus):
    # relative-spectrum.bijection reads the spectra of 80 sub-algebras on 31
    # operation tables; the run's facts serve each table from one
    # computation, and with a fresh dict per call every call computes its own
    from lalg import spectrum

    subs = []
    real_subalgebra = spectrum.subalgebra

    def counted_subalgebra(alg, mask):
        sub, elems = real_subalgebra(alg, mask)
        subs.append((sub.unit, sub.table))
        return sub, elems

    monkeypatch.setattr(spectrum, "subalgebra", counted_subalgebra)
    lattices, _, cold = _spectrum_fact_counts(monkeypatch, full_corpus, ["relative-spectrum.bijection"])
    assert len(subs) == 80 and len(set(subs)) == 31
    assert len(lattices) == len(full_corpus)
    assert len(cold) == len(set(cold)) and set(subs) <= set(cold)
    subs.clear()
    # B2xB2's two atoms are sub-algebras with one table
    lat = enumerate_ideals(next(f.algebra for f in full_corpus if f.name == "B2xB2"))
    spec = spectrum.prime_ideals(lat)
    for k in range(len(lat)):
        before = len(cold)
        spectrum.relative_spectrum(spec, k, {})
        # I and X/I, or one computation when they share a table
        assert len(cold) - before in (1, 2)
    assert len(subs) == len(lat) == len(set(subs)) + 1


def test_a_law_run_keeps_no_sub_algebra_lattice_alive(monkeypatch, full_corpus):
    # no sub-algebra gets a lattice, and what a run builds (its contexts,
    # which hold the run's facts, and its lattices) is gone when it returns
    # with the cyclic collector off: a reference cycle would keep every
    # run's structures alive until the collector runs, and raise the peak
    # memory of a process that runs the suite again and again
    import gc
    import weakref

    from lalg import ideals, laws, spectrum

    refs, subs, sub_lattices = [], [], []
    real_init, real_context, real_subalgebra = (
        ideals.IdealLattice.__init__,
        laws.Context.__init__,
        spectrum.subalgebra,
    )

    def tracked_lattice(self, alg, *args):
        real_init(self, alg, *args)
        refs.append(weakref.ref(self))
        if any(alg is sub for sub in subs):
            sub_lattices.append(alg)

    def tracked_context(self, *args):
        real_context(self, *args)
        refs.append(weakref.ref(self))

    def tracked_subalgebra(alg, mask):
        sub, elems = real_subalgebra(alg, mask)
        subs.append(sub)
        return sub, elems

    monkeypatch.setattr(ideals.IdealLattice, "__init__", tracked_lattice)
    monkeypatch.setattr(laws.Context, "__init__", tracked_context)
    monkeypatch.setattr(spectrum, "subalgebra", tracked_subalgebra)
    gc.disable()
    try:
        assert all_pass(run_suite(full_corpus))
        assert len(subs) == 80 and sub_lattices == []
        assert len(refs) == 19 + 16 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_per_algebra_facts_are_decided_once_in_a_law_run(monkeypatch, full_corpus):
    # the distributivity certificate, read by three laws, runs once per
    # algebra, and the principal primality, read by three laws, once per ideal
    from lalg import laws

    certified, decided = [], []
    real_certify, real_primality = laws.certify_distributive, laws._principal_primality
    monkeypatch.setattr(
        laws, "certify_distributive", lambda *args: certified.append(args[4]) or real_certify(*args)
    )
    monkeypatch.setattr(
        laws,
        "_principal_primality",
        lambda lat, p: decided.append((lat.algebra.name, p)) or real_primality(lat, p),
    )
    assert all_pass(run_suite(full_corpus))
    assert sorted(certified) == sorted(f.algebra.name for f in full_corpus)
    assert len(decided) == len(set(decided)) == sum(len(enumerate_ideals(f.algebra)) for f in full_corpus)


def test_each_law_run_has_its_own_memo(monkeypatch, fixture_map):
    # nothing is carried from one run_suite to the next: each run builds
    # the top lattice and the spectrum facts of the quotients and
    # sub-algebras cold
    from lalg import ideals, spectrum

    fixture = fixture_map["omega3"]
    cold, facts = [], []
    real_masks, real_points = ideals._ideal_masks, spectrum.point_masks
    monkeypatch.setattr(
        ideals, "_ideal_masks", lambda alg, *a: cold.append(alg) or real_masks(alg, *a)
    )
    monkeypatch.setattr(
        spectrum, "point_masks", lambda alg, *a: facts.append(alg) or real_points(alg, *a)
    )
    for runs in (1, 2):
        assert all_pass(run_suite([fixture]))
        assert sum(1 for alg in cold if alg is fixture.algebra) == runs
    assert len(facts) % 2 == 0 and len(facts) > 2
    first = facts[: len(facts) // 2]
    assert [(a.unit, a.table) for a in first] == [(a.unit, a.table) for a in facts[len(first) :]]


def _planted_flags(monkeypatch, **changes):
    """Make the law harness read ``structure_flags`` with some fields replaced."""
    from dataclasses import replace

    from lalg import laws

    real = laws.structure_flags
    monkeypatch.setattr(laws, "structure_flags", lambda alg: replace(real(alg), **changes))


def test_point_map_law_fails_when_a_bijective_map_is_not_brouwerian(monkeypatch, b2):
    # x -> U_<x> is a bijection on B2; with the Brouwerian flag planted false
    # the "bijective iff Brouwerian" contract breaks
    _planted_flags(monkeypatch, brouwerian=False)
    report = run_law("point-map.brouwerian", Fixture("B2", b2))
    assert (report.verdict, report.instances, report.detail) == ("fail", 2, "injective, not Brouwerian")
    assert {k: v for k, v in report.witness.items() if k != "algebra_document"} == {
        "bijective": True,
        "brouwerian": False,
    }


def test_meet_join_law_fails_on_a_meet_closed_algebra_with_a_non_principal_ideal(
    monkeypatch, algebras
):
    # example5 has non-principal ideals; planted meet-closed, it must fail
    _planted_flags(monkeypatch, meet_closed=True)
    report = run_law("principal-ideals.meet-join", Fixture("example5", algebras["example5"]))
    assert (report.verdict, report.instances) == ("fail", 14)
    assert report.witness["problem"] == "a meet-closed algebra has a non-principal ideal"


def test_meet_join_law_fails_when_a_meet_is_wrong(monkeypatch, chain3):
    # in chain3 the meet of a and b is b; planted as a, <a> v <b> = X is not <a>
    a, b = chain3.index_of("a"), chain3.index_of("b")
    meets = [list(row) for row in structure_flags(chain3).meets]
    meets[a][b] = a
    _planted_flags(monkeypatch, meets=tuple(map(tuple, meets)))
    report = run_law("principal-ideals.meet-join", Fixture("chain3", chain3))
    assert (report.verdict, report.instances) == ("fail", 6)
    assert report.witness["problem"] == "join of principal ideals is not the principal ideal of the meet"


def test_a_dropped_point_fails_the_prime_quotient_and_attachment_laws(monkeypatch, chain3):
    # chain3's points are {1} and {1,a}; without {1}, the ideal {1} is not
    # prime while X/{1} (chain3 itself) is subdirectly irreducible, and {1},
    # the maximal ideal avoiding a, is no longer a point
    from dataclasses import replace

    from lalg import laws

    real = laws.prime_ideals
    monkeypatch.setattr(laws, "prime_ideals", lambda lat: replace(real(lat), points=real(lat).points[1:]))
    fixture = Fixture("chain3", chain3)

    report = run_law("prime.iff-quotient-irreducible", fixture)
    assert (report.verdict, report.instances) == ("fail", 1)
    assert (
        report.witness["ideal"],
        report.witness["prime"],
        report.witness["quotient_subdirectly_irreducible"],
    ) == (("1",), False, True)

    report = run_law("prime-elements.attachment", fixture)
    assert report.verdict == "fail"
    assert (report.witness["error"], report.witness["element"]) == ("MaximalAvoiderNotPrime", "a")

    # the quasi-prime row reads no attachment, so it passes
    report = run_law("prime-elements.quasiprime", fixture)
    assert (report.verdict, report.detail) == ("pass", "primes {a,b} <= quasi-primes {a,b}")
