import json
import tracemalloc

import pytest

from lalg.constructions import Fixture, enumerate_all, fixtures, poset_algebra, product_pairs
from lalg.core import validate
from lalg.errors import AxiomViolation, ParseError, UnwritableLabel
from lalg.formats import (
    AlgebraDocument,
    algebra_to_document,
    load_algebra,
    parse_algebra,
    parse_algebra_json,
    parse_algebra_text,
    parse_poset_text,
    save_algebra,
    serialize_algebra_json,
    serialize_algebra_text,
    serialize_report,
)
from lalg.laws import LawReport, run_suite

B2_TEXT = """\
# the two-element Boolean algebra
name: B2
elements: 0 1
unit: 1
row 0: 1 1
row 1: 0 1
"""

DIAMOND_TEXT = """\
name: diamond
elements: 1 p q 0
unit: 1
row 1: 1 p q 0
row p: 1 1 0 0
row q: 1 0 1 0
row 0: 1 1 1 1
"""


def test_parse_b2_document(b2):
    doc = parse_algebra_text(B2_TEXT)
    assert doc.name == "B2"
    alg = doc.to_algebra()
    assert alg.table == b2.table


def test_parse_diamond_matches_fixture(diamond):
    alg = parse_algebra_text(DIAMOND_TEXT).to_algebra()
    assert alg.table == diamond.table
    assert alg.labels == diamond.labels


def test_parse_rows_in_any_order():
    shuffled = """\
name: B2
unit: 1
elements: 0 1
row 1: 0 1
row 0: 1 1
"""
    assert parse_algebra_text(shuffled) == parse_algebra_text(B2_TEXT)


def test_table_not_square_error_position():
    bad = """\
name: bad
elements: a b c
unit: a
row a: a a a a
row b: a a a
row c: a a a
"""
    with pytest.raises(ParseError) as exc:
        parse_algebra_text(bad)
    assert "table not square" in str(exc.value)
    assert exc.value.line == 4
    assert exc.value.col == 14  # the extra fourth entry


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_algebra_text("name: x\nwhat: ever\n")
    assert (exc.value.line, exc.value.col) == (2, 1)

    with pytest.raises(ParseError) as exc:
        parse_algebra_text("name: x\nelements: a a\n")
    assert exc.value.line == 2 and exc.value.col == 13

    with pytest.raises(ParseError) as exc:
        parse_algebra_text("elements: a\nunit: a\nrow a: z\n")
    assert exc.value.line == 3 and exc.value.col == 8

    with pytest.raises(ParseError, match="missing row"):
        parse_algebra_text("elements: a b\nunit: a\nrow a: a b\n")

    with pytest.raises(ParseError, match="missing unit"):
        parse_algebra_text("elements: a b\nrow a: a b\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\n" + B2_TEXT + "\n# trailing\n"
    assert parse_algebra_text(text).to_algebra().n == 2


def test_axiom_violation_propagates_from_document():
    bad = """\
elements: 0 1
unit: 1
row 0: 0 1
row 1: 0 1
"""
    with pytest.raises(AxiomViolation):
        parse_algebra_text(bad).to_algebra()


def test_round_trip_text_all_fixtures():
    for f in fixtures():
        doc = algebra_to_document(f.algebra)
        assert parse_algebra_text(serialize_algebra_text(doc)) == doc


def test_round_trip_json_all_fixtures():
    for f in fixtures():
        doc = algebra_to_document(f.algebra)
        assert parse_algebra_json(serialize_algebra_json(doc)) == doc


@pytest.mark.parametrize(
    "name, labels, offending",
    [
        ("has space", ("1", "a"), "has space"),
        ("B2", ("1", "a b"), "a b"),
        ("B2", ("1", "a#"), "a#"),
        ("B2#2", ("1", "a"), "B2#2"),
        ("B2", ("1\t", "a"), "1\t"),
    ],
)
def test_text_save_refuses_what_the_line_format_cannot_carry(
    tmp_path, name, labels, offending
):
    alg = validate([[0, 1], [0, 0]], 0, labels=labels, name=name)
    path = tmp_path / "out.lalg"
    with pytest.raises(UnwritableLabel) as exc:
        save_algebra(alg, path)
    assert repr(offending) in str(exc.value)
    assert ".json" in str(exc.value)
    assert not path.exists()
    save_algebra(alg, tmp_path / "out.json")
    back = load_algebra(tmp_path / "out.json")
    assert (back.name, back.labels, back.unit, back.table) == (
        alg.name, alg.labels, alg.unit, alg.table
    )


@pytest.mark.parametrize("suffix", [".lalg", ".json"])
def test_only_a_missing_name_takes_the_file_stem(tmp_path, suffix):
    alg = validate([[0, 1], [0, 0]], 0, labels=("1", "a"), name="X")
    save_algebra(alg, tmp_path / f"keep{suffix}")
    assert load_algebra(tmp_path / f"keep{suffix}").name == "X"
    doc = algebra_to_document(alg)
    nameless = AlgebraDocument(None, doc.elements, doc.unit, doc.table)
    write = serialize_algebra_json if suffix == ".json" else serialize_algebra_text
    text = write(nameless)
    assert parse_algebra(text, suffix).name is None
    assert "name" not in text
    (tmp_path / f"anon{suffix}").write_text(text, encoding="utf-8")
    assert load_algebra(tmp_path / f"anon{suffix}").name == "anon"
    assert nameless.to_algebra().name == "X"


def test_json_metadata_round_trip():
    doc = AlgebraDocument(
        name="B2",
        elements=("0", "1"),
        unit="1",
        table=(("1", "1"), ("0", "1")),
        metadata={"source": "unit test", "ideals": 2},
    )
    assert parse_algebra_json(serialize_algebra_json(doc)) == doc


def test_json_errors():
    with pytest.raises(ParseError):
        parse_algebra_json("{not json")
    with pytest.raises(ParseError, match="missing key"):
        parse_algebra_json('{"elements": ["a"], "unit": "a"}')
    with pytest.raises(ParseError, match="table not square"):
        parse_algebra_json(
            '{"elements": ["a", "b"], "unit": "a", "table": [["a", "b"]]}'
        )


def test_poset_file_round_trip(chain3):
    spec = parse_poset_text(
        "elements: 1 a b\ntop: 1\ncover b < a\ncover a < 1\n"
    )
    alg = poset_algebra(spec)
    assert alg.table == chain3.table


def test_poset_file_errors():
    with pytest.raises(ParseError, match="missing top"):
        parse_poset_text("elements: a\n")
    with pytest.raises(ParseError, match="cover syntax"):
        parse_poset_text("elements: a b\ntop: b\ncover a b\n")


_PARSERS = {"lalg": parse_algebra_text, "poset": parse_poset_text, "json": parse_algebra_json}

#: Every error branch of the three readers, with the position and message it
#: reports: blank lines, comments and tabs shift columns as a reader must see.
READER_ERRORS = [
    ('lalg', 'name: a\nname: b\n', 2, 1, 'duplicate name line'),
    ('lalg', 'name: a b\n', 1, 1, 'name takes exactly one label'),
    ('lalg', 'name:\n', 1, 1, 'name takes exactly one label'),
    ('lalg', 'elements: a\nelements: a\n', 2, 1, 'duplicate elements line'),
    ('lalg', 'elements:   # no labels\n', 1, 1, 'elements line lists no labels'),
    ('lalg', 'elements: a b\tc b\n', 1, 17, "duplicate element label 'b'"),
    ('lalg', 'unit: a\nunit: a\n', 2, 1, 'duplicate unit line'),
    ('lalg', 'unit: a b\n', 1, 1, 'unit takes exactly one label'),
    ('lalg', 'unit:\n', 1, 1, 'unit takes exactly one label'),
    ('lalg', 'row a: a\nelements: a\n', 1, 1, 'row before the elements line'),
    ('lalg', 'elements: a\nrow a a\n', 2, 1, 'row syntax is: row <label>: <entries>'),
    ('lalg', 'elements: a\nrow\n', 2, 1, 'row syntax is: row <label>: <entries>'),
    ('lalg', 'elements: a\n  row z: a\n', 2, 7, "row for unknown element 'z'"),
    ('lalg', 'elements: a\nrow a: a\nrow a: a\n', 3, 5, "duplicate row for 'a'"),
    ('lalg', 'elements: a b\nrow a: a b a\n', 2, 12, "table not square: row 'a' has 3 entries, expected 2"),
    ('lalg', 'elements: a b\nrow a: a\n', 2, 8, "table not square: row 'a' has 1 entries, expected 2"),
    ('lalg', 'elements: a b\nrow a:   # nothing\n', 2, 5, "table not square: row 'a' has 0 entries, expected 2"),
    ('lalg', 'elements: a b\nrow a: a c\n', 2, 10, "unknown element label 'c'"),
    ('lalg', 'elements: a b\nrow a: a b#c\n', 3, 1, 'missing unit line'),
    ('lalg', '  what: ever\n', 1, 3, "unknown directive 'what:'"),
    ('lalg', 'row: a\n', 1, 1, "unknown directive 'row:'"),
    ('lalg', '\n# only a comment\n', 3, 1, 'missing elements line'),
    ('lalg', '', 1, 1, 'missing elements line'),
    ('lalg', 'elements: a\n\n', 3, 1, 'missing unit line'),
    ('lalg', 'elements: a\nunit: b\nrow a: a\n', 4, 1, "unit 'b' is not an element"),
    ('lalg', 'elements: a b\nunit: a\nrow b: a b\n', 4, 1, "missing row for 'a'"),
    ('lalg', 'elements:a b\n', 1, 1, "unknown directive 'elements:a'"),
    ('lalg', 'name: a\nname:\n', 2, 1, 'duplicate name line'),
    ('poset', 'elements: a\nelements: b\n', 2, 1, 'duplicate elements line'),
    ('poset', 'elements: # none\n', 1, 1, 'elements line lists no labels'),
    ('poset', 'top: a\ntop: a\n', 2, 1, 'duplicate top line'),
    ('poset', 'top: a b\n', 1, 1, 'top takes exactly one label'),
    ('poset', 'elements: a b\ncover a < b c\n', 2, 1, 'cover syntax is: cover <low> < <high>'),
    ('poset', 'elements: a b\ncover a > b\n', 2, 1, 'cover syntax is: cover <low> < <high>'),
    ('poset', 'name: p\n', 1, 1, "unknown directive 'name:'"),
    ('poset', 'top: a\n', 2, 1, 'missing elements line'),
    ('poset', 'elements: a b\n\n', 3, 1, 'missing top line'),
    ('poset', 'elements:a b\n', 1, 1, "unknown directive 'elements:a'"),
    ('json', '[1, 2]', 1, 1, 'top level must be an object'),
    ('json', '{"elements": ["a", 1], "unit": "a", "table": [["a", "a"]]}', 1, 2, 'elements must be a list of strings'),
    ('json', '{"elements": "a", "unit": "a", "table": []}', 1, 2, 'elements must be a list of strings'),
    ('json', '{"elements": ["a"], "unit": "a", "table": [["a"]],\n "metadata": [1]}', 2, 2, 'metadata must be an object'),
]


@pytest.mark.parametrize("kind, text, line, col, message", READER_ERRORS)
def test_every_reader_error_has_its_position_and_message(kind, text, line, col, message):
    with pytest.raises(ParseError) as exc:
        _PARSERS[kind](text)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (line, col, message)


def test_empty_report_serialization():
    assert serialize_report([], format="json") == '{"schema":1,"reports":[]}'
    assert serialize_report([], format="text") == ""


def _mk_report(verdict="pass", witness=None):
    return LawReport(
        law="ideal-lattice.distributive",
        corpus="B2",
        verdict=verdict,
        instances=8,
        time_s=0.00123,
        detail=None,
        witness=witness,
    )


def test_pass_row_fields():
    payload = json.loads(serialize_report([_mk_report()], format="json"))
    (row,) = payload["reports"]
    assert row["law"] == "ideal-lattice.distributive"
    assert row["corpus"] == "B2"
    assert row["verdict"] == "pass"
    assert row["stats"]["instances"] == 8
    assert "witness" not in row


def test_fail_row_includes_witness():
    bad = _mk_report(verdict="fail", witness={"I": ["1"], "J": ["1"], "K": ["1"]})
    payload = json.loads(serialize_report([bad], format="json"))
    (row,) = payload["reports"]
    assert row["verdict"] == "fail"
    assert row["witness"] == {"I": ["1"], "J": ["1"], "K": ["1"]}


def test_timing_isolated_for_golden_comparisons():
    with_timing = serialize_report([_mk_report()], format="json")
    without = serialize_report([_mk_report()], format="json", include_timing=False)
    assert "time_s" in with_timing and "time_s" not in without
    text = serialize_report([_mk_report()], format="text", include_timing=False)
    assert "ms" not in text and "PASS" in text


def test_text_report_of_a_failing_row_with_timing():
    failing = LawReport(
        law="join.witness-form",
        corpus="diamond",
        verdict="fail",
        instances=3,
        time_s=0.0456,
        detail="no witness",
        witness={"I": ["1"], "algebra_document": {"elements": ["1"]}, "J": ["1", "p"]},
    )
    assert serialize_report([_mk_report(), failing], format="text") == (
        "PASS ideal-lattice.distributive :: B2 (8 instances, 1.2ms)\n"
        "FAIL join.witness-form :: diamond (3 instances, 45.6ms) -- no witness\n"
        '     witness: {"I":["1"],"J":["1","p"]}\n'
    )
    assert serialize_report([failing], format="text", include_timing=False) == (
        "FAIL join.witness-form :: diamond (3 instances) -- no witness\n"
        '     witness: {"I":["1"],"J":["1","p"]}\n'
    )


def _law_corpus(n=None):
    """The corpus of ``lalg laws``: the default one, or every table with up to n elements."""
    if n is not None:
        return [Fixture(a.name, a) for k in range(1, n + 1) for a in enumerate_all(k)]
    corpus = list(fixtures())
    seen = {f.name for f in corpus}
    return corpus + [p for p in product_pairs() if p.name not in seen]


@pytest.fixture(scope="module")
def enum4_reports():
    return run_suite(_law_corpus(4))


def test_the_report_is_encoded_as_the_whole_payload_would_be(json_oracles, enum4_reports):
    # one json.dumps per law, joined, against one over the whole payload:
    # the default corpus and --enumerate 4 (5,564 rows, 9 failing), a
    # failing row with a detail and a replayable witness, laws out of
    # order, and no rows
    whole, _ = json_oracles
    witness = {"I": ["1"], "algebra_document": {"elements": ["1", "é"], "unit": "1"}}
    failing = LawReport("join.witness-form", "B2", "fail", 3, 0.25, 'no "join" witness', witness)
    cases = [[], [failing], [_mk_report(), failing, _mk_report()], run_suite(_law_corpus()), enum4_reports]
    assert len(enum4_reports) == 5564 and sum(r.verdict == "fail" for r in enum4_reports) == 9
    for reports in cases:
        for timing in (True, False):
            assert serialize_report(reports, format="json", include_timing=timing) == whole(reports, timing)


def test_the_report_encoding_holds_a_few_documents_at_most(enum4_reports):
    # the whole payload held every row's dict, the encoder's pieces and the
    # string at once: 8.2 times the document's length at its peak here.
    # One law's rows at a time, the blocks and their join peak at 2.0 times
    # (tracemalloc, Python 3.11)
    tracemalloc.start()
    try:
        doc = serialize_report(enum4_reports, format="json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(doc), (peak, len(doc))
