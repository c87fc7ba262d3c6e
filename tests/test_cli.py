import json
import tracemalloc

import pytest

from lalg.cli import main
from lalg.formats import load_algebra, save_algebra
from lalg.ideals import enumerate_ideals, mask_of

DIAMOND = """\
name: diamond
elements: 1 p q 0
unit: 1
row 1: 1 p q 0
row p: 1 1 0 0
row q: 1 0 1 0
row 0: 1 1 1 1
"""

CHAIN3 = """\
name: chain3
elements: 1 a b
unit: 1
row 1: 1 a b
row a: 1 1 b
row b: 1 1 1
"""

BROKEN = """\
elements: 0 1
unit: 1
row 0: 0 1
row 1: 0 1
"""


@pytest.fixture()
def diamond_file(tmp_path):
    f = tmp_path / "diamond.lalg"
    f.write_text(DIAMOND)
    return str(f)


def test_validate_prints_flags(diamond_file, capsys):
    assert main(["validate", diamond_file]) == 0
    out = capsys.readouterr().out
    assert "valid L-algebra" in out
    assert "brouwerian: no" in out
    assert "meet_closed: yes" in out


def test_validate_broken_table_exits_one(tmp_path, capsys):
    f = tmp_path / "broken.lalg"
    f.write_text(BROKEN)
    assert main(["validate", str(f)]) == 1
    err = capsys.readouterr().err
    assert "not an L-algebra" in err
    assert "x*x != 1" in err


def test_parse_error_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.lalg"
    f.write_text("elements: a b\nunit: a\nrow a: a b b\nrow b: a a\n")
    assert main(["validate", str(f)]) == 2
    assert "table not square" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["validate", "/no/such/file.lalg"]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_ideals_output(diamond_file, capsys):
    assert main(["ideals", diamond_file]) == 0
    out = capsys.readouterr().out
    assert "2 ideal(s)" in out
    assert "{1}" in out and "{1,p,q,0}" in out


def test_ideals_json(diamond_file, capsys):
    assert main(["ideals", diamond_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ideals"] == [["1"], ["1", "p", "q", "0"]]
    assert payload["residuation"][0][0] == 1  # bottom*bottom = top


def test_ideals_json_above_the_cap_exits_two(monkeypatch, tmp_path, capsys):
    # chain3 has 3 ideals: at a cap of 3 it prints, at a cap of 2 it is a
    # usage error with one error line and nothing on stdout; the plain
    # listing has no cap
    import lalg.cli as cli

    f = tmp_path / "chain3.lalg"
    f.write_text(CHAIN3)
    monkeypatch.setattr(cli, "IDEALS_JSON_CAP", 3)
    assert main(["ideals", str(f), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["ideals"]) == 3
    monkeypatch.setattr(cli, "IDEALS_JSON_CAP", 2)
    assert main(["ideals", str(f), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 3 ideals exceed the --json cap of 2\n"
    assert main(["ideals", str(f)]) == 0


def test_ideals_json_cap_admits_anti11_and_refuses_anti12():
    # anti k has 2^k ideals; the benchmark's query inputs have at most 128
    import lalg.cli as cli

    assert 2**11 <= cli.IDEALS_JSON_CAP < 2**12


@pytest.mark.parametrize(
    "text, message",
    [
        ('{\n  "name": "c",\n  "elements": ["1", "a"],\n  "unit": "1"\n}\n', "line 5, col 1: missing key 'table'"),
        (
            '{\n  "elements": ["1", "a"],\n  "unit": "1",\n  "table": [\n    ["1", "a"],\n    ["1", "b"]\n  ]\n}\n',
            "line 6, col 5: unknown element label 'b'",
        ),
        ('{\n  "elements": ["1", "a"],\n  "table": [["1", "a"], ["1"]],\n  "unit": "1"\n}', "line 3, col 25: table not square"),
        ('{\n  "elements": ["1", "a"],\n  "table": [["1", "a"], ["1", "1"]],\n  "unit": "z"\n}', "line 4, col 3: unit 'z' is not an element"),
        ('{"table": [],\n "elements": ["1", "1"], "unit": "1"}', "line 2, col 2: duplicate element label"),
    ],
)
def test_json_errors_point_at_the_key_or_row(tmp_path, capsys, text, message):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_spectrum_topology(diamond_file, capsys):
    assert main(["spectrum", diamond_file, "--topology"]) == 0
    out = capsys.readouterr().out
    assert "1 point(s)" in out
    assert "T0: yes" in out
    assert "sober: yes" in out


def _poset_file(path, name, labels, leq):
    """The implication algebra of a poset, x*y = 1 when x <= y and y
    otherwise, written in the line format from its definition alone;
    ``labels[0]`` is the top."""
    rows = [
        f"row {x}: " + " ".join(labels[0] if leq(i, j) else y for j, y in enumerate(labels))
        for i, x in enumerate(labels)
    ]
    path.write_text("\n".join([f"name: {name}", f"elements: {' '.join(labels)}", "unit: 1", *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("chain", [0, 47])
def test_spectrum_at_sixty_four_elements_builds_no_lattice(monkeypatch, tmp_path, capsys, chain):
    # anti63 (63 atoms under a top, 2^63 ideals) and chain47/anti16 (a
    # 47-element chain above 16 atoms, under a top; 65,583 ideals): the
    # points of a poset's implication algebra are the sets {y | not y <= x},
    # one per x below the top, printed in (size, mask) order, and no lattice
    # is enumerated to find them
    import lalg.ideals as ideals

    def unbuilt(self, *args):
        raise AssertionError("an ideal lattice was built")

    monkeypatch.setattr(ideals.IdealLattice, "__init__", unbuilt)
    labels = ["1"] + [f"c{i}" for i in range(chain)] + [f"a{i}" for i in range(63 - chain)]

    def leq(i, j):
        # the top, then c0 > c1 > ... above the atoms, which are incomparable
        if i == j or j == 0:
            return True
        if i == 0:
            return False
        return j <= chain and (i > j or i > chain)

    name = f"chain{chain}/anti{63 - chain}" if chain else "anti63"
    path = _poset_file(tmp_path / "poset.lalg", name, labels, leq)
    assert main(["spectrum", path]) == 0
    points = [sum(1 << y for y in range(64) if not leq(y, x)) for x in range(1, 64)]
    points.sort(key=lambda m: (m.bit_count(), m))
    braced = ["  {" + ",".join(labels[y] for y in range(64) if (m >> y) & 1) + "}" for m in points]
    assert capsys.readouterr().out.splitlines() == [f"{name}: 63 point(s)", *braced]


def test_spectrum_topology_reports_a_planted_open(monkeypatch, tmp_path, capsys):
    # U_X emptied on chain3: it is no longer the union of the principal
    # opens inside X
    from dataclasses import replace

    import lalg.cli as cli

    real = cli.prime_ideals

    def planted(lat):
        spec = real(lat)
        opens = list(spec.opens)
        opens[lat.top] = 0
        return replace(spec, opens=tuple(opens))

    monkeypatch.setattr(cli, "prime_ideals", planted)
    f = tmp_path / "chain3.lalg"
    f.write_text(CHAIN3)
    assert main(["spectrum", str(f), "--topology"]) == 1
    out = capsys.readouterr().out
    assert "quasi-compact basis: NO" in out
    assert "problem: U_I is not the union of its principal opens for I = {1,a,b}" in out


def test_ideals_json_reports_a_planted_missing_join(monkeypatch, tmp_path, capsys):
    # chain3's full ideal dropped from the down-set look-up: the joins that
    # land on it miss, and the command falsifies before it prints
    import lalg.cli as cli

    real = cli.enumerate_ideals

    def planted(alg):
        lat = real(alg)
        lat.by_downset = {d: k for k, d in enumerate(lat.downsets) if k != lat.top}
        return lat

    monkeypatch.setattr(cli, "enumerate_ideals", planted)
    f = tmp_path / "chain3.lalg"
    f.write_text(CHAIN3)
    assert main(["ideals", "--json", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "falsification: chain3: no ideal has S_I u S_J as its down-set\n"


def test_ideals_json_reports_a_planted_residual_that_is_no_ideal(monkeypatch, tmp_path, capsys):
    # chain3's residual of the full ideal by the bottom planted as {1,b},
    # which is no ideal: the residuation table raises, and the command
    # falsifies before it prints
    import lalg.cli as cli

    real = cli.enumerate_ideals

    def planted(alg):
        lat = real(alg)
        honest, full, bad = lat._residuation_mask, alg.full_mask, mask_of([alg.unit, alg.index_of("b")])
        lat._residuation_mask = lambda imask, jmask: bad if (imask, jmask) == (full, 1 << alg.unit) else honest(imask, jmask)
        return lat

    monkeypatch.setattr(cli, "enumerate_ideals", planted)
    f = tmp_path / "chain3.lalg"
    f.write_text(CHAIN3)
    assert main(["ideals", "--json", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "falsification: chain3: element-wise residuation is not an ideal\n"


def test_ideals_json_computes_one_residual_per_distinct_difference(monkeypatch, algebras, tmp_path, capsys):
    # I*J depends on I \ J only: the command checks one residual per distinct
    # difference before it writes, and writes every row off that memo
    from lalg.constructions import product
    from lalg.ideals import IdealLattice

    real = IdealLattice._residuation_mask
    calls = []
    monkeypatch.setattr(IdealLattice, "_residuation_mask", lambda self, a, b: calls.append((a, b)) or real(self, a, b))
    for alg in (algebras["omega5"], product(algebras["chain3"], algebras["B2xB2"])):
        path = tmp_path / "input.lalg"
        save_algebra(alg, path)
        masks = enumerate_ideals(alg).masks
        calls.clear()
        assert main(["ideals", "--json", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["residuation"]) == len(masks)
        assert len(calls) == len({a & ~b for a in masks for b in masks}) == len({a & ~b for a, b in calls})


def test_laws_above_the_ideal_cap_exits_two(monkeypatch, tmp_path, capsys):
    # chain3 has 3 ideals: at a cap of 3 the suite runs, at a cap of 2 it
    # is a usage error with one error line and no report, in text and
    # JSON; a selection of laws that reads no lattice runs above the cap
    import lalg.laws as laws

    f = tmp_path / "chain3.lalg"
    f.write_text(CHAIN3)
    monkeypatch.setattr(laws, "MAX_IDEALS", 3)
    assert main(["laws", str(f), "--json", "--no-timing"]) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == len(laws.LAWS)
    monkeypatch.setattr(laws, "MAX_IDEALS", 2)
    for extra in ([], ["--json"]):
        assert main(["laws", str(f), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: chain3: 3 ideals exceed the law suite's cap of 2\n"
    assert main(["laws", str(f), "--law", "validate.axioms", "--law", "meet.glb", "--no-timing"]) == 0
    assert "2/2 law checks passed" in capsys.readouterr().out


def test_the_laws_cap_admits_anti12_and_refuses_anti13():
    # anti k has 2^k ideals; the benchmark's ladder inputs have at most 128
    import lalg.laws as laws

    assert 2**12 <= laws.MAX_IDEALS < 2**13


def test_ideals_json_is_the_whole_document_past_a_partial_block(json_oracles, algebras, tmp_path, capsys):
    # chain3^2 x B2^2 has 36 ideals, a block of 32 rows and one of 4: the
    # document written a block at a time is the one that one json.dumps
    # call over the three tables as lists gives
    from lalg.constructions import product

    _, whole = json_oracles
    alg = product(product(algebras["chain3"], algebras["chain3"]), algebras["B2xB2"])
    path = tmp_path / "c3c3b2b2.lalg"
    save_algebra(alg, path)
    assert main(["ideals", "--json", str(path)]) == 0
    assert capsys.readouterr().out == whole(enumerate_ideals(load_algebra(path)))


def test_ideals_json_holds_a_few_blocks_at_most(tmp_path, capsys):
    # anti7 (128 ideals, a 168 kB document) with stdout captured: the three
    # tables as lists and their encoding at once peaked at 23.5 times the
    # document's length, a block of rows at a time at 4.0 times, the
    # lattice, its residuation table and the captured output included
    # (tracemalloc, Python 3.11)
    f = tmp_path / "anti7.lalg"
    f.write_text(_antichain_text(7))
    tracemalloc.start()
    try:
        assert main(["ideals", "--json", str(f)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert peak < 8 * len(out), (peak, len(out))


def test_laws_on_files(diamond_file, capsys):
    code = main(["laws", diamond_file, "--law", "ideal-lattice.distributive", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS ideal-lattice.distributive :: diamond" in out


def test_the_reused_parser_carries_nothing_into_the_next_call(diamond_file, capsys):
    argv = ["laws", diamond_file, "--law", "ideal-lattice.distributive", "--json", "--no-timing"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)["reports"]
    assert [r["law"] for r in first] == ["ideal-lattice.distributive"]
    assert main(["laws", diamond_file, "--law", "meet.glb", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "PASS meet.glb :: diamond (16 instances)",
        "1/1 law checks passed on 1 algebra(s)",
    ]


def test_laws_enumerate_two(capsys):
    assert main(["laws", "--enumerate", "2", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "enum1-00000" in out and "enum2-00000" in out


@pytest.mark.parametrize(
    "corpus, failures",
    [(["--enumerate", "4"], 9), (["--enumerate", "5", "--iso"], 72)],
)
def test_relative_spectrum_boundary_failure_counts(corpus, failures, capsys):
    # the standalone reading of Spec I fails on exactly these many algebras;
    # a change either way must show
    argv = ["laws", *corpus, "--law", "relative-spectrum.bijection", "--json", "--no-timing"]
    assert main(argv) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert sum(r["verdict"] == "fail" for r in reports) == failures


def test_laws_unknown_id_exits_two(capsys):
    assert main(["laws", "--law", "nope"]) == 2
    assert "lalg laws --list" in capsys.readouterr().err


def test_laws_list(capsys):
    assert main(["laws", "--list"]) == 0
    out = capsys.readouterr().out
    assert "ideal-lattice.distributive" in out
    assert "relative-spectrum.bijection" in out


def test_laws_enumerate_conflicts_with_files(diamond_file, capsys):
    assert main(["laws", diamond_file, "--enumerate", "2"]) == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_laws_enumerate_below_one_exits_two(n, capsys):
    # an empty corpus is not a pass
    assert main(["laws", "--enumerate", n]) == 2
    assert "--enumerate" in capsys.readouterr().err


def test_laws_enumerate_above_cap_exits_two(capsys):
    # an input limit is a usage error, not a falsification
    assert main(["laws", "--enumerate", "9"]) == 2
    err = capsys.readouterr().err
    assert "capped at 5" in err
    assert "falsification" not in err


def test_laws_report_an_enumerated_table_that_breaks_the_axioms(monkeypatch, capsys):
    # enumerate_all does not validate; a faulty table from the search comes
    # back as a failing validate.axioms row with a replayable witness, and
    # the other rows still run
    import lalg.constructions as constructions

    real = constructions._search_tables

    def planted(n, relabelings):
        if n == 2:
            yield (0, 1, 0, 1)  # 1*1 = 1, not the unit 0
        else:
            yield from real(n, relabelings)

    monkeypatch.setattr(constructions, "_search_tables", planted)
    assert main(["laws", "--enumerate", "2", "--json", "--no-timing"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    row = next(r for r in reports if r["law"] == "validate.axioms" and r["corpus"] == "enum2-00000")
    assert row["verdict"] == "fail"
    assert row["witness"]["violations"] == ["[unit] x*x != 1 at x=1"]
    assert row["witness"]["algebra_document"]["table"] == [["1", "a"], ["1", "a"]]
    assert {r["corpus"] for r in reports} == {"enum1-00000", "enum2-00000"}


def _antichain_text(k):
    atoms = [f"a{i}" for i in range(k)]
    rows = [f"row 1: 1 {' '.join(atoms)}"]
    rows += [f"row {x}: 1 {' '.join('1' if y == x else y for y in atoms)}" for x in atoms]
    return f"elements: 1 {' '.join(atoms)}\nunit: 1\n" + "\n".join(rows) + "\n"


def test_validate_above_the_carrier_cap_exits_two(tmp_path, capsys):
    # an input limit is a usage error, not a malformed table
    f = tmp_path / "anti64.lalg"
    f.write_text(_antichain_text(64))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == "error: carrier size 65 exceeds the cap of 64\n"


def test_construct_product_above_the_carrier_cap_exits_two(tmp_path, capsys):
    f = tmp_path / "anti8.lalg"
    f.write_text(_antichain_text(8))
    out_file = tmp_path / "prod.lalg"
    assert main(["construct", "product", str(f), str(f), "-o", str(out_file)]) == 2
    assert capsys.readouterr().err == "error: carrier size 81 exceeds the cap of 64\n"
    assert not out_file.exists()


def test_construct_refuses_a_broken_product(monkeypatch, diamond_file, tmp_path, capsys):
    # product() builds without validating; save_algebra validates before it
    # writes, so a faulty builder table is refused and nothing is written
    from dataclasses import replace

    import lalg.constructions as constructions

    real = constructions.product

    def broken(x, y):
        prod = real(x, y)
        table = [list(row) for row in prod.table]
        table[1][1] = 1  # x*x = x, not 1
        return replace(prod, table=tuple(map(tuple, table)))

    monkeypatch.setattr(constructions, "product", broken)
    out_file = tmp_path / "prod.lalg"
    assert main(["construct", "product", diamond_file, diamond_file, "-o", str(out_file)]) == 1
    assert "not an L-algebra" in capsys.readouterr().err
    assert not out_file.exists()


def test_laws_fail_exit_code(tmp_path, capsys):
    # a square non-L table: validation fails inside the law run
    f = tmp_path / "broken.lalg"
    f.write_text(BROKEN)
    assert main(["laws", str(f)]) == 1


def test_construct_product_and_reload(diamond_file, tmp_path, capsys):
    out_file = tmp_path / "prod.lalg"
    assert main(["construct", "product", diamond_file, diamond_file, "-o", str(out_file)]) == 0
    assert main(["validate", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "16 element(s)" in out


def test_construct_ordered_sum(diamond_file, tmp_path, capsys):
    out_file = tmp_path / "sum.json"
    assert main(["construct", "ordered-sum", diamond_file, diamond_file, "-o", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["elements"]) == 7


def test_construct_poset(tmp_path, capsys):
    poset = tmp_path / "chain.poset"
    poset.write_text("elements: 1 a b\ntop: 1\ncover b < a\ncover a < 1\n")
    out_file = tmp_path / "chain.lalg"
    assert main(["construct", "poset", str(poset), "-o", str(out_file)]) == 0
    assert main(["validate", str(out_file)]) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("elements: 1 a\ntop: 1\ncover a < z\n", "cover ('a', 'z') uses unknown labels"),
        ("elements: 1 a b\ntop: 1\ncover a < b\ncover b < a\n", "covers are cyclic"),
        ("elements: 1 a\ntop: 1\n", "'1' is not above 'a'"),
        ("elements: 1 a\ntop: 1\ntop: a\ncover a < 1\n", "line 3, col 1: duplicate top line"),
        (
            "elements: 1 a a\ntop: 1\ncover a < 1\n",
            "parse error: line 1, col 15: duplicate element label 'a'",
        ),
    ],
    ids=["unknown-label", "cyclic", "top-not-above", "duplicate-top", "repeated-label"],
)
def test_construct_poset_rejects_a_malformed_poset(tmp_path, capsys, text, message):
    poset = tmp_path / "bad.poset"
    poset.write_text(text)
    out_file = tmp_path / "bad.lalg"
    assert main(["construct", "poset", str(poset), "-o", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1
    assert not out_file.exists()


def test_quotient_by_ideal(diamond_file, tmp_path, capsys):
    out_file = tmp_path / "quot.lalg"
    assert main(["quotient", diamond_file, "--ideal", "1,p,q,0", "-o", str(out_file)]) == 0
    assert "1 elements" in capsys.readouterr().out


def test_quotient_validates_the_algebra_it_writes(monkeypatch, diamond_file, tmp_path, capsys):
    # quotient() does not validate; save_algebra does, so a broken quotient
    # table is refused and nothing is written
    from dataclasses import replace

    import lalg.cli as cli

    real = cli.quotient

    def broken(alg, ideal):
        q = real(alg, ideal)
        table = [list(row) for row in q.algebra.table]
        table[1][1] = 1  # p*p = p, not 1
        return replace(q, algebra=replace(q.algebra, table=tuple(map(tuple, table))))

    monkeypatch.setattr(cli, "quotient", broken)
    out_file = tmp_path / "quot.lalg"
    assert main(["quotient", diamond_file, "--ideal", "1", "-o", str(out_file)]) == 1
    assert "not an L-algebra" in capsys.readouterr().err
    assert not out_file.exists()


def test_quotient_rejects_non_ideal(diamond_file, tmp_path, capsys):
    out_file = tmp_path / "quot.lalg"
    assert main(["quotient", diamond_file, "--ideal", "1,p", "-o", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert "not an ideal" in err
    assert "{1,p,q,0}" in err  # suggests the closure


def test_quotient_unknown_label(diamond_file, tmp_path, capsys):
    # a label the algebra lacks is a usage error, and nothing is written
    assert main(["quotient", diamond_file, "--ideal", "zap", "-o", str(tmp_path / "q")]) == 2
    assert capsys.readouterr().err == "error: diamond: no element labelled 'zap'\n"
    assert not (tmp_path / "q").exists()


@pytest.fixture()
def spaced_file(tmp_path):
    # the diamond with labels that only the JSON format can carry
    f = tmp_path / "spaced.json"
    f.write_text(
        json.dumps(
            {
                "name": "spaced",
                "elements": ["1", "p q", "r", "0"],
                "unit": "1",
                "table": [
                    ["1", "p q", "r", "0"],
                    ["1", "1", "0", "0"],
                    ["1", "0", "1", "0"],
                    ["1", "1", "1", "1"],
                ],
            }
        )
    )
    return str(f)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "product", "{spaced}", "{spaced}"],
        ["construct", "ordered-sum", "{spaced}", "{spaced}"],
        ["quotient", "{spaced}", "--ideal", "1"],
    ],
)
def test_text_output_of_an_unwritable_label_exits_two(argv, spaced_file, tmp_path, capsys):
    out_file = tmp_path / "out.lalg"
    argv = [a.format(spaced=spaced_file) for a in argv] + ["-o", str(out_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "p q" in err and ".json" in err
    assert not out_file.exists()
    json_file = tmp_path / "out.json"
    assert main(argv[:-1] + [str(json_file)]) == 0
    assert main(["validate", str(json_file)]) == 0


def test_fixtures_list(capsys):
    assert main(["fixtures", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("unit", "B2", "diamond", "omega5", "example5"):
        assert name in out


def test_fixtures_emit_round_trip(tmp_path, capsys):
    assert main(["fixtures", "--emit", "B2"]) == 0
    text = capsys.readouterr().out
    f = tmp_path / "b2.lalg"
    f.write_text(text)
    assert main(["validate", str(f)]) == 0


def test_fixtures_emit_unknown(capsys):
    assert main(["fixtures", "--emit", "nope"]) == 2


def _strip_times(payload):
    for row in payload["reports"]:
        row["stats"].pop("time_s", None)
    return payload


def test_laws_json_deterministic_modulo_timing(capsys):
    assert main(["laws", "--enumerate", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["laws", "--enumerate", "2", "--json"]) == 0
    second = capsys.readouterr().out
    a = json.dumps(_strip_times(json.loads(first)), sort_keys=True)
    b = json.dumps(_strip_times(json.loads(second)), sort_keys=True)
    assert a == b
