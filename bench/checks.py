"""Checks of every workload output against facts computed without lalg.

An operation is one report row (law x algebra) of a ``laws`` command, or one
``ideals`` or ``spectrum`` command.  It fails when its verdict or output is
wrong by these checks, or when the command raised.  The one failure the
benchmark expects is a known fault: ``ideal-lattice.is-l-algebra`` on an
algebra with more than 64 ideals, where lalg validates the ideal lattice as
an algebra and trips the 64-element carrier cap.  Any other failure, and any
workload-level check that does not hold, is a problem and makes the run
incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

import oracle

REL_LAW = "relative-spectrum.bijection"
REL_REASON = "a prime of the ideal is not an ideal of the ambient algebra"
CAP_LAW = "ideal-lattice.is-l-algebra"
CARRIER_CAP = 64
LAW_COUNT = 26  # registered laws when the benchmark was written; a report with fewer lost some
ISO_COUNT_5 = 632  # recomputed without lalg by bench/recount.py
REL_FAILURES_ENUM5 = 72
SAMPLE_PAIRS = 400  # lattice pairs whose join and residuation are checked, at most


@dataclass
class Facts:
    """What the checks know about one input algebra."""

    name: str
    ideals: int
    points: int
    table: list | None = None  # index table, when the benchmark has it
    unit: int = 0
    labels: tuple[str, ...] = ()
    rel_fails: bool | None = None  # predicted verdict of REL_LAW, when computed
    product: bool = False  # built by lalg as a product, so its factors are known


@dataclass
class Outcome:
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def corpus_facts() -> dict[str, Facts]:
    """Ideal and point counts of the default corpus.

    The seven base algebras are small enough to count by hand (omega3: the
    upper sets of 1 > x > x2 > x3 with y < x); for products, ideals multiply
    and points add.
    """
    base = {
        "unit": (1, 0),
        "B2": (2, 1),
        "diamond": (2, 1),
        "chain3": (3, 2),
        "omega3": (7, 4),
        "omega5": (11, 6),
        "example5": (5, 3),
    }
    facts = {name: Facts(name, i, p) for name, (i, p) in base.items()}
    for a in ("B2", "diamond", "chain3"):
        for b in ("B2", "diamond", "chain3"):
            (ia, pa), (ib, pb) = base[a], base[b]
            facts[f"{a}x{b}"] = Facts(f"{a}x{b}", ia * ib, pa + pb, product=True)
    return facts


def table_facts(tab) -> Facts:
    """Facts of a generated input (bench/inputs.py)."""
    return Facts(tab.name, tab.ideals, tab.points, [list(r) for r in tab.table], tab.unit, tab.labels)


def enumeration_facts(enumerate_all) -> tuple[dict[str, Facts], list[str]]:
    """Check lalg's enumerator for n <= 5 up to isomorphism and return its algebras' facts.

    Every table must satisfy the axioms, no two may share a canonical form,
    and the per-size counts must match a brute force for n <= 4 and the
    pinned 632 for n = 5.  For each algebra the facts include its ideal and
    prime counts and whether the standalone reading of the relative spectrum
    must fail on it.
    """
    facts: dict[str, Facts] = {}
    problems = []
    for n in range(1, 6):
        algs = list(enumerate_all(n, up_to_iso=True))
        expected = oracle.brute_force_counts(n)[1] if n <= 4 else ISO_COUNT_5
        if len(algs) != expected:
            problems.append(f"enumerate_all({n}, iso) gave {len(algs)} tables, expected {expected}")
        forms = set()
        for alg in algs:
            t = [list(r) for r in alg.table]
            if alg.unit != 0 or not oracle.axioms_hold(t, alg.unit):
                problems.append(f"{alg.name} is not an L-algebra with unit at index 0")
                continue
            forms.add(oracle.canonical_form(t))
            ideals = oracle.all_ideals(t, alg.unit)
            primes = oracle.primes_by_definition(ideals, (1 << n) - 1)
            escapes = any(oracle.standalone_prime_escapes(t, alg.unit, i) for i in ideals)
            facts[alg.name] = Facts(alg.name, len(ideals), len(primes), t, alg.unit, tuple(alg.labels), escapes)
        if len(forms) != len(algs):
            problems.append(f"enumerate_all({n}, iso) repeats an isomorphism class")
    predicted = sum(1 for f in facts.values() if f.rel_fails)
    if predicted != REL_FAILURES_ENUM5:
        problems.append(f"{predicted} algebras fail the standalone relative spectrum, expected {REL_FAILURES_ENUM5}")
    return facts, problems


_IDEALS = re.compile(r"^(\d+) ideals")
_POINTS = re.compile(r"^(\d+) points")


def _doc_table(doc: dict):
    index = {lab: i for i, lab in enumerate(doc["elements"])}
    return [[index[v] for v in row] for row in doc["table"]], index[doc["unit"]], index


def _confirm_relative_failure(row: dict, facts: Facts | None) -> str | None:
    """None when the failure is the documented boundary, else what is wrong."""
    w = row.get("witness") or {}
    if w.get("reason") != REL_REASON:
        return f"unexpected reason {w.get('reason')!r}"
    try:
        t, unit, index = _doc_table(w["algebra_document"])
        mask = sum(1 << index[lab] for lab in w["ideal"])
    except (KeyError, TypeError) as exc:
        return f"witness not replayable ({exc})"
    if facts is not None and facts.table is not None and (t != facts.table or unit != facts.unit):
        return "witness table differs from the input"
    if not oracle.is_ideal(t, unit, mask):
        return "witness ideal is not an ideal"
    if not oracle.standalone_prime_escapes(t, unit, mask):
        return "no prime of the ideal escapes the ambient rules"
    return None


def check_laws(text: str, rc, algebras: dict[str, Facts], min_laws: int = LAW_COUNT) -> Outcome:
    """One laws report: every theorem row passes, the boundary failures are confirmed.

    ``min_laws`` is the least number of laws each algebra must have rows
    for; the benchmark runs the whole registry.
    """
    out = Outcome()
    try:
        rows = json.loads(text)["reports"]
        keys = [(r["law"], r["corpus"]) for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        out.ops = out.failed = len(algebras) * LAW_COUNT
        out.problems.append(f"unreadable laws report ({exc}); rc={rc}")
        return out
    out.ops = len(rows)
    laws = {law for law, _ in keys}
    if (
        {c for _, c in keys} != set(algebras)
        or len(laws) < min_laws
        or len(set(keys)) != len(keys)
        or len(keys) != len(laws) * len(algebras)
    ):
        out.problems.append("report rows are not one per (law, algebra) over the expected corpus")
    if rc != (0 if all(r["verdict"] == "pass" for r in rows) else 1):
        out.problems.append(f"exit code {rc} does not match the verdicts")

    for r in rows:
        facts = algebras.get(r["corpus"])
        wrong = None
        if r["verdict"] == "pass":
            if r["law"] == REL_LAW and facts is not None and facts.rel_fails:
                wrong = "passes although a prime of some ideal escapes the ambient rules"
            elif facts is not None and r["law"] == "ideal-lattice.distributive":
                m = _IDEALS.match(r.get("detail") or "")
                if not m or int(m.group(1)) != facts.ideals:
                    wrong = f"detail {r.get('detail')!r}, expected {facts.ideals} ideals"
            elif facts is not None and facts.product and r["law"] == "product.factorization":
                if r.get("detail") != f"{facts.ideals} ideals, {facts.points} points":
                    wrong = f"detail {r.get('detail')!r}, expected the factors' counts"
            elif facts is not None and r["law"] == "spectrum.t0-sober":
                m = _POINTS.match(r.get("detail") or "")
                if not m or int(m.group(1)) != facts.points:
                    wrong = f"detail {r.get('detail')!r}, expected {facts.points} points"
        elif r["law"] == REL_LAW:
            wrong = _confirm_relative_failure(r, facts)
        elif (
            r["law"] == CAP_LAW
            and facts is not None
            and facts.ideals > CARRIER_CAP
            and (r.get("witness") or {}).get("error") == "MalformedTable"
        ):
            out.failed += 1  # the known fault: an input limit reported as a falsification
            continue
        else:
            wrong = f"theorem fails: {json.dumps(r.get('witness'))[:300]}"
        if wrong is not None:
            out.failed += 1
            out.problems.append(f"{r['law']} on {r['corpus']}: {wrong}")
    return out


def _masks(labels_lists, facts: Facts) -> list[int]:
    index = {lab: i for i, lab in enumerate(facts.labels)}
    return [sum(1 << index[lab] for lab in labs) for labs in labels_lists]


def check_ideals(text: str, rc, facts: Facts, rng: random.Random) -> Outcome:
    """``ideals --json``: the closed-form count, every ideal closed, the tables right.

    Meets are checked in full; joins and residuations on every pair when
    there are at most SAMPLE_PAIRS pairs, else on a seeded sample of that many.
    """
    out = Outcome(ops=1)
    t, unit = facts.table, facts.unit
    try:
        doc = json.loads(text)
        masks = _masks(doc["ideals"], facts)
        meet, join, res = doc["meet"], doc["join"], doc["residuation"]
    except (ValueError, KeyError, TypeError) as exc:
        out.failed = 1
        out.problems.append(f"unreadable ideals output ({exc}); rc={rc}")
        return out
    m = len(masks)
    bad = []
    if rc != 0:
        bad.append(f"exit code {rc}")
    if m != facts.ideals or len(set(masks)) != m:
        bad.append(f"{m} ideals listed ({len(set(masks))} distinct), expected {facts.ideals}")
    bad += [f"{sorted(oracle.members(x))} is not an ideal" for x in masks if not oracle.is_ideal(t, unit, x)][:3]
    pairs = [(i, j) for i in range(m) for j in range(m)]
    if len(pairs) > SAMPLE_PAIRS:
        pairs = rng.sample(pairs, SAMPLE_PAIRS)
    try:
        if not bad:
            bad += [
                f"meet[{i}][{j}] is not the intersection"
                for i in range(m)
                for j in range(m)
                if masks[meet[i][j]] != masks[i] & masks[j]
            ][:1]
        for i, j in [] if bad else pairs:
            if masks[join[i][j]] != oracle.closure(t, unit, masks[i] | masks[j]):
                bad.append(f"join[{i}][{j}] is not the least ideal above both")
            r = masks[res[i][j]]
            inside = [k for k in masks if k & masks[i] & ~masks[j] == 0]
            if r not in inside or any(k & ~r for k in inside):
                bad.append(f"residuation[{i}][{j}] is not the greatest K with K n I <= J")
    except (IndexError, TypeError) as exc:
        bad.append(f"malformed table ({exc})")
    if bad:
        out.failed = 1
        out.problems.append(f"ideals: {'; '.join(bad[:3])}")
    return out


def check_spectrum(text: str, rc, facts: Facts) -> Outcome:
    """``spectrum --topology``: the closed-form point count, each point prime, T0 and sober."""
    out = Outcome(ops=1)
    lines = text.splitlines()
    bad = []
    head = re.match(r"^\S+: (\d+) point\(s\)$", lines[0]) if lines else None
    if rc != 0 or head is None:
        bad.append(f"exit code {rc}, first line {lines[:1]}")
    else:
        npts = int(head.group(1))
        point_lines = lines[1 : 1 + npts]
        try:
            masks = _masks([ln.strip()[1:-1].split(",") for ln in point_lines], facts)
        except KeyError as exc:
            masks = []
            bad.append(f"unknown label {exc}")
        if npts != facts.points or len(set(masks)) != npts:
            bad.append(f"{npts} points ({len(set(masks))} distinct), expected {facts.points}")
        for x in masks:
            if not oracle.is_ideal(facts.table, facts.unit, x):
                bad.append(f"point {sorted(oracle.members(x))} is not an ideal")
            elif not oracle.is_meet_irreducible(facts.table, facts.unit, x):
                bad.append(f"point {sorted(oracle.members(x))} is not prime")
        if lines[1 + npts : 3 + npts] != ["T0: yes", "sober: yes"]:
            bad.append(f"topology lines {lines[1 + npts : 3 + npts]}")
    if bad:
        out.failed = 1
        out.problems.append(f"spectrum: {'; '.join(bad[:3])}")
    return out


class Checker:
    """Checks each command's output, once per distinct output.

    ``corpus`` holds the algebras of a ``laws`` command without files (the
    default corpus or the enumeration); ``files`` maps each input path to
    its facts.
    """

    def __init__(self, corpus: dict[str, Facts], files: dict[str, Facts], seed: int):
        self.corpus = corpus
        self.files = files
        self.rng = random.Random(f"check:{seed}")
        self._seen: dict[tuple, Outcome] = {}

    def check(self, argv: list[str], rc, text: str, error: str | None) -> Outcome:
        if error is not None:
            if argv[0] != "laws":
                ops = 1
            else:
                ops = LAW_COUNT * (1 if argv[-1] in self.files else len(self.corpus))
            return Outcome(ops, ops, [f"{' '.join(argv)} raised {error}"])
        key = (tuple(argv), rc, re.sub(r'"time_s":[-+0-9.eE]+', "", text))
        if key not in self._seen:
            self._seen[key] = self._check(argv, rc, text)
        return self._seen[key]

    def _check(self, argv: list[str], rc, text: str) -> Outcome:
        facts = self.files.get(argv[-1])
        if argv[0] == "laws":
            return check_laws(text, rc, {facts.name: facts} if facts else self.corpus)
        if argv[0] == "ideals":
            return check_ideals(text, rc, facts, self.rng)
        return check_spectrum(text, rc, facts)
