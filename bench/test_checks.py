"""Tests of the benchmark's own checkers: each must reject a planted defect.

    python3 -m pytest -q bench/test_checks.py

Outputs are produced by lalg itself (from ``src/``), then corrupted in one
place; a checker that still accepts them would be vacuous.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lalg.cli import main as lalg_main  # noqa: E402
from lalg.constructions import enumerate_all  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lalg_main(argv)
    return rc, out.getvalue()


def write(tab, tmp_path):
    path = str(tmp_path / workloads.file_name(tab))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.to_text(tab))
    return path


CHAIN3 = [[0, 1, 2], [0, 0, 2], [0, 0, 0]]  # 1 > a > b as a poset algebra
DIAMOND = [[0, 1, 2, 3], [0, 0, 3, 3], [0, 3, 0, 3], [0, 0, 0, 0]]  # 1, p, q, 0


# -- oracle -------------------------------------------------------------------


def test_axioms_reject_broken_exchange():
    assert oracle.axioms_hold(DIAMOND, 0)
    broken = [row[:] for row in DIAMOND]
    broken[1][3] = 1  # p*0 = p keeps the unit laws and antisymmetry, breaks exchange
    assert not oracle.axioms_hold(broken, 0)


def test_ideal_check_rejects_non_ideal():
    assert oracle.is_ideal(CHAIN3, 0, 0b011)  # {1, a}
    assert not oracle.is_ideal(CHAIN3, 0, 0b101)  # {1, b} is not an upper set
    assert oracle.closure(CHAIN3, 0, 0b100) == 0b111
    assert oracle.all_ideals(CHAIN3, 0) == [0b001, 0b011, 0b111]


def test_canonical_form_and_brute_force():
    swapped = [[0, 1, 2], [0, 0, 0], [0, 1, 0]]  # CHAIN3 with a and b renamed
    assert oracle.canonical_form(swapped) == oracle.canonical_form(CHAIN3)
    assert [oracle.brute_force_counts(n) for n in (1, 2, 3)] == [(1, 1), (1, 1), (8, 5)]


def test_closed_forms_of_generated_inputs():
    for tab in (inputs.anti(3), inputs.power(inputs.b2(), 2), inputs.power(inputs.chain3(), 2)):
        t = [list(r) for r in tab.table]
        assert oracle.axioms_hold(t, tab.unit)
        ideals = oracle.all_ideals(t, tab.unit)
        assert len(ideals) == tab.ideals
        assert len(oracle.primes_by_definition(ideals, (1 << tab.n) - 1)) == tab.points
        assert sum(oracle.is_meet_irreducible(t, tab.unit, i) for i in ideals) == tab.points


# -- output checks ------------------------------------------------------------


@pytest.fixture
def chain_input(tmp_path):
    tab = workloads._relabel(inputs.power(inputs.chain3(), 2), random.Random(5))
    return tab, write(tab, tmp_path)


def test_ideals_check_accepts_then_rejects_a_wrong_join(chain_input):
    tab, path = chain_input
    facts = checks.table_facts(tab)
    rc, text = run_cli(["ideals", "--json", path])
    assert checks.check_ideals(text, rc, facts, random.Random(1)).failed == 0
    doc = json.loads(text)
    i, j = 1, 2
    doc["join"][i][j] = doc["meet"][i][j]  # a wrong join entry
    out = checks.check_ideals(json.dumps(doc), rc, facts, random.Random(1))
    assert out.failed == 1 and "join" in out.problems[0]


def test_ideals_check_rejects_a_subset_that_is_not_an_ideal(chain_input):
    tab, path = chain_input
    rc, text = run_cli(["ideals", "--json", path])
    doc = json.loads(text)
    doc["ideals"][1] = [tab.labels[tab.unit], tab.labels[-1]]  # the unit and the bottom: not an upper set
    out = checks.check_ideals(json.dumps(doc), rc, checks.table_facts(tab), random.Random(1))
    assert out.failed == 1


def test_spectrum_check_rejects_a_non_prime_point(chain_input):
    tab, path = chain_input
    facts = checks.table_facts(tab)
    rc, text = run_cli(["spectrum", "--topology", path])
    assert checks.check_spectrum(text, rc, facts).failed == 0
    lines = text.splitlines()
    lines[1] = "  {" + ",".join(tab.labels) + "}"  # the full carrier is not a proper ideal
    assert checks.check_spectrum("\n".join(lines) + "\n", rc, facts).failed == 1
    wrong_count = text.replace("4 point(s)", "3 point(s)", 1)
    assert checks.check_spectrum(wrong_count, rc, facts).failed == 1


def test_laws_check_counts_the_cap_fault_and_rejects_other_failures(tmp_path):
    tab = inputs.anti(7)
    path = write(tab, tmp_path)
    rc, text = run_cli(["laws", "--json", "--law", checks.CAP_LAW, path])
    facts = checks.table_facts(tab)
    known = checks.check_laws(text, rc, {tab.name: facts}, min_laws=1)
    assert (known.ops, known.failed, known.problems) == (1, 1, [])
    small = checks.Facts(tab.name, 64, tab.points)  # the same failure on <= 64 ideals is a defect
    assert checks.check_laws(text, rc, {tab.name: small}, min_laws=1).problems


def test_laws_check_rejects_wrong_counts_and_lost_rows(tmp_path):
    tab = inputs.power(inputs.b2(), 2)
    path = write(tab, tmp_path)
    rc, text = run_cli(["laws", "--json", path])
    facts = checks.table_facts(tab)
    assert checks.check_laws(text, rc, {tab.name: facts}).problems == []
    wrong = checks.Facts(tab.name, tab.ideals + 1, tab.points)
    assert checks.check_laws(text, rc, {tab.name: wrong}).failed == 1
    doc = json.loads(text)
    doc["reports"].pop()
    assert checks.check_laws(json.dumps(doc), rc, {tab.name: facts}).problems


def test_relative_spectrum_failures_are_confirmed_not_waved_through():
    rc, text = run_cli(["laws", "--enumerate", "4", "--iso", "--law", checks.REL_LAW, "--json"])
    algs = {a.name: a for n in range(1, 5) for a in enumerate_all(n, up_to_iso=True)}
    facts = {}
    for name, a in algs.items():
        t = [list(r) for r in a.table]
        escapes = any(oracle.standalone_prime_escapes(t, a.unit, i) for i in oracle.all_ideals(t, a.unit))
        facts[name] = checks.Facts(name, 0, 0, t, a.unit, a.labels, escapes)
    out = checks.check_laws(text, rc, facts, min_laws=1)
    doc = json.loads(text)
    failing = [r for r in doc["reports"] if r["verdict"] == "fail"]
    assert failing and out.failed == 0 and out.problems == []
    assert len(failing) == sum(f.rel_fails for f in facts.values())

    failing[0]["witness"]["reason"] = "I*P escaped the open set U_I"
    assert checks.check_laws(json.dumps(doc), rc, facts, min_laws=1).failed == 1
    passing = next(r for r in doc["reports"] if r["verdict"] == "pass")
    passing.update(verdict="fail", witness=failing[1]["witness"])  # a failure on the wrong algebra
    assert checks.check_laws(json.dumps(doc), rc, facts, min_laws=1).failed == 2


def test_enumeration_check_rejects_repeats_and_non_algebras():
    def repeating(n, up_to_iso=False):
        algs = list(enumerate_all(n, up_to_iso=up_to_iso))
        return algs + algs[-1:] if n == 3 else algs

    assert any("repeats" in p for p in checks.enumeration_facts(repeating)[1])

    class Fake:
        name, unit, labels = "fake", 0, ("1", "a", "b")
        table = ((0, 1, 2), (0, 0, 2), (0, 1, 1))  # b*b is not the unit

    def broken(n, up_to_iso=False):
        algs = list(enumerate_all(n, up_to_iso=up_to_iso))
        return algs[:-1] + [Fake()] if n == 3 else algs

    assert any("not an L-algebra" in p for p in checks.enumeration_facts(broken)[1])


# -- benchmark definition and tracer -----------------------------------------


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_what_it_wraps(tmp_path):
    import lalg.cli
    import lalg.ideals
    import lalg.laws

    before = (lalg.cli.main, lalg.ideals.is_ideal, lalg.ideals.IdealLattice.__init__, lalg.laws.LAWS[0].check)
    tracer = tracing.Tracer()
    tracer.install()
    mark = tracer.mark()
    try:
        rc, _ = run_cli(["laws", "--json", write(inputs.anti(3), tmp_path)])
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics(mark)
    assert rc == 0 and metrics["laws.rows"] == 26 and metrics["ideals.enumerate_ideals.calls"] > 0
    assert metrics["ideals.is_ideal.calls"] > 0 and metrics["laws.validate.axioms.s"] > 0
    assert all(p < 0 or p < i for i, (_, _, _, p) in enumerate(tracer.spans()))
    after = (lalg.cli.main, lalg.ideals.is_ideal, lalg.ideals.IdealLattice.__init__, lalg.laws.LAWS[0].check)
    assert after == before
