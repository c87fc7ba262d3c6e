"""File formats: the line-oriented algebra format, JSON twins, poset files,
and law-report serialization, its JSON encoded a block at a time.

The text format (``.lalg``) is UTF-8, line oriented and diff friendly::

    # comment
    name: diamond
    elements: 1 p q 0
    unit: 1
    row 1: 1 p q 0
    row p: 1 1 0 0
    row q: 1 0 1 0
    row 0: 1 1 1 1

Column order inside a row is the ``elements`` order; one ``row`` line per
element.  The JSON alternative mirrors the document field for field (plus an
optional ``metadata`` object) and is chosen by the ``.json`` extension.
Poset files (``elements:``, ``top:`` and ``cover a < b`` lines) are read by
the same line reader, so a repeated label on an ``elements:`` line is a parse
error in both.  Parse errors report exact one-based line and column positions;
a column is found only when an error is raised.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .constructions import PosetSpec
from .core import FiniteLAlgebra, validate
from .errors import ParseError, UnwritableLabel

if TYPE_CHECKING:  # pragma: no cover
    from .laws import LawReport

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class AlgebraDocument:
    """An algebra as written in a file: labels only, no indices.

    ``name`` is None when the file has no name line (or key); such an
    algebra takes the default name ``X``, and :func:`load_algebra` gives it
    the file's stem.
    """

    name: str | None
    elements: tuple[str, ...]
    unit: str
    table: tuple[tuple[str, ...], ...]
    metadata: dict | None = None

    def to_algebra(self, validated: bool = True) -> FiniteLAlgebra:
        index = {lab: i for i, lab in enumerate(self.elements)}
        table = [[index[v] for v in row] for row in self.table]
        name = "X" if self.name is None else self.name
        if validated:
            return validate(table, index[self.unit], labels=self.elements, name=name)
        return FiniteLAlgebra(
            name=name,
            labels=self.elements,
            unit=index[self.unit],
            table=tuple(tuple(r) for r in table),
        )

    def to_json_object(self) -> dict:
        """The document as the JSON format writes it (and witnesses embed it)."""
        payload: dict = {} if self.name is None else {"name": self.name}
        payload["elements"] = list(self.elements)
        payload["unit"] = self.unit
        payload["table"] = [list(row) for row in self.table]
        if self.metadata is not None:
            payload["metadata"] = self.metadata
        return payload


def algebra_to_document(alg: FiniteLAlgebra) -> AlgebraDocument:
    return AlgebraDocument(
        name=alg.name,
        elements=alg.labels,
        unit=alg.label(alg.unit),
        table=tuple(tuple(alg.label(v) for v in row) for row in alg.table),
    )


_TOKEN = re.compile(r"\S+")


def _error(lineno: int, raw: str, k: int, message: str) -> ParseError:
    """An error at the k-th token of a line; only here is its column found."""
    return ParseError(lineno, [m.start() for m in _TOKEN.finditer(raw)][k] + 1, message)


def _read_lines(text: str, singles: dict[str, bool], verb: str, handle) -> tuple[dict, int]:
    """The reader both line formats share.

    Blank lines and ``#`` comments are skipped.  Each ``key:`` directive is
    read at most once: ``elements:`` as a dict of distinct labels in file
    order, a key of ``singles`` as one label (required where it maps to
    True).  A line headed by ``verb`` goes to ``handle(found, tokens, lineno,
    raw)``.  Returns the directives found and the line after the last, where
    a missing one is reported.
    """
    found: dict = {}
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("#")[0].split()
        if not toks:
            continue
        if toks[0] == verb:
            handle(found, toks, lineno, raw)
            continue
        head, key, labels = toks[0], toks[0][:-1], toks[1:]
        if head[-1:] != ":" or (key != "elements" and key not in singles):
            raise _error(lineno, raw, 0, f"unknown directive {head!r}")
        if key in found:
            raise _error(lineno, raw, 0, f"duplicate {key} line")
        if key in singles and len(labels) != 1:
            raise _error(lineno, raw, 0, f"{key} takes exactly one label")
        if not labels:
            raise _error(lineno, raw, 0, "elements line lists no labels")
        found[key] = labels[0] if key in singles else dict.fromkeys(labels)
        if key not in singles and len(found[key]) != len(labels):
            k = next(k for k in range(len(labels)) if labels[k] in labels[:k])
            raise _error(lineno, raw, k + 1, f"duplicate element label {labels[k]!r}")
    for key in ("elements", *singles):
        if singles.get(key, True) and key not in found:
            raise ParseError(lineno + 1, 1, f"missing {key} line")
    return found, lineno + 1


def parse_algebra_text(text: str) -> AlgebraDocument:
    """Parse the line format; raises :class:`ParseError` with exact positions."""
    rows: dict[str, tuple[str, ...]] = {}

    def row(found: dict, toks: list[str], lineno: int, raw: str) -> None:
        elements = found.get("elements")
        if elements is None:
            raise _error(lineno, raw, 0, "row before the elements line")
        if len(toks) < 2 or toks[1][-1:] != ":":
            raise _error(lineno, raw, 0, "row syntax is: row <label>: <entries>")
        label, entries = toks[1][:-1], toks[2:]
        if label not in elements:
            raise _error(lineno, raw, 1, f"row for unknown element {label!r}")
        if label in rows:
            raise _error(lineno, raw, 1, f"duplicate row for {label!r}")
        n = len(elements)
        if len(entries) != n:
            # at the first entry too many, else at the last token of the row
            message = f"table not square: row {label!r} has {len(entries)} entries, expected {n}"
            raise _error(lineno, raw, min(2 + n, len(toks) - 1), message)
        for tok in entries:
            if tok not in elements:
                raise _error(lineno, raw, 2 + entries.index(tok), f"unknown element label {tok!r}")
        rows[label] = tuple(entries)

    found, end = _read_lines(text, {"name": False, "unit": True}, "row", row)
    elements, unit = found["elements"], found["unit"]
    if unit not in elements:
        raise ParseError(end, 1, f"unit {unit!r} is not an element")
    missing = [e for e in elements if e not in rows]
    if missing:
        raise ParseError(end, 1, f"missing row for {missing[0]!r}")
    return AlgebraDocument(
        name=found.get("name"),
        elements=tuple(elements),
        unit=unit,
        table=tuple(rows[e] for e in elements),
    )


def serialize_algebra_text(doc: AlgebraDocument) -> str:
    """The line format; refuses a name or label it could not read back."""
    named = [] if doc.name is None else [("name", doc.name)]
    for what, text in named + [("label", e) for e in doc.elements]:
        if not text or "#" in text or any(c.isspace() for c in text):
            raise UnwritableLabel(
                f"{what} {text!r} cannot be written in the line format, which splits "
                "on whitespace and '#'; save to a .json path instead"
            )
    lines = [] if doc.name is None else [f"name: {doc.name}"]
    lines += [f"elements: {' '.join(doc.elements)}", f"unit: {doc.unit}"]
    for label, row in zip(doc.elements, doc.table):
        lines.append(f"row {label}: {' '.join(row)}")
    return "\n".join(lines) + "\n"


def parse_algebra_json(text: str) -> AlgebraDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    return document_from_json_object(data, text)


_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _json_positions(text: str) -> dict:
    """(line, col) of each key of the top-level object in ``text``, of each
    row of its ``table`` (keyed ("table", r)) and of its closing brace ("}").

    The text has already been decoded, so it is well formed; each value is
    skipped with ``raw_decode``.
    """
    decoder = json.JSONDecoder()
    out: dict = {}

    def skip(i: int, sep: str = "") -> int:  # past blanks, then past ``sep`` if it is next
        i = _JSON_SPACE.match(text, i).end()
        return _JSON_SPACE.match(text, i + 1).end() if sep and text[i] == sep else i

    def mark(key: object, i: int) -> None:
        out[key] = (text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i))

    i = skip(skip(0), "{")
    while text[i] != "}":
        key, i_value = decoder.raw_decode(text, i)
        mark(key, i)
        i = skip(i_value, ":")
        if key == "table" and text[i] == "[":
            i, r = skip(i, "["), 0
            while text[i] != "]":
                mark(("table", r), i)
                i, r = skip(decoder.raw_decode(text, i)[1], ","), r + 1
            i += 1
        else:
            i = decoder.raw_decode(text, i)[1]
        i = skip(i, ",")
    mark("}", i)
    return out


def document_from_json_object(data: object, text: str | None = None) -> AlgebraDocument:
    """Check a decoded JSON value as a document (the inverse of ``to_json_object``).

    With the ``text`` it was decoded from, an error is placed at the
    offending key or row (:func:`_json_positions`; a missing key at the
    closing brace); without it, as for a witness's embedded document, at
    line 1, col 1.
    """

    def error(where: object, message: str) -> ParseError:
        positions = _json_positions(text) if text is not None and isinstance(data, dict) else {}
        return ParseError(*positions.get(where, (1, 1)), message)

    if not isinstance(data, dict):
        raise error(None, "top level must be an object")
    for key in ("elements", "unit", "table"):
        if key not in data:
            raise error("}", f"missing key {key!r}")
    elements = data["elements"]
    table = data["table"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise error("elements", "elements must be a list of strings")
    if len(set(elements)) != len(elements):
        raise error("elements", "duplicate element label")
    if not isinstance(table, list) or len(table) != len(elements):
        raise error("table", "table not square: one row per element required")
    for r, row in enumerate(table):
        if not isinstance(row, list) or len(row) != len(elements):
            raise error(("table", r), "table not square")
        for v in row:
            if v not in elements:
                raise error(("table", r), f"unknown element label {v!r}")
    if data["unit"] not in elements:
        raise error("unit", f"unit {data['unit']!r} is not an element")
    metadata = data.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise error("metadata", "metadata must be an object")
    name = data.get("name")
    return AlgebraDocument(
        name=None if name is None else str(name),
        elements=tuple(elements),
        unit=data["unit"],
        table=tuple(tuple(row) for row in table),
        metadata=metadata,
    )


def serialize_algebra_json(doc: AlgebraDocument) -> str:
    return json.dumps(doc.to_json_object(), indent=2) + "\n"


def parse_algebra(text: str, suffix: str = ".lalg") -> AlgebraDocument:
    """Dispatch on the file extension; ``.json`` means JSON, anything else text."""
    if suffix == ".json":
        return parse_algebra_json(text)
    return parse_algebra_text(text)


def load_algebra(path: str | Path) -> FiniteLAlgebra:
    p = Path(path)
    doc = parse_algebra(p.read_text(encoding="utf-8"), p.suffix)
    if doc.name is None:
        doc = AlgebraDocument(p.stem, doc.elements, doc.unit, doc.table, doc.metadata)
    return doc.to_algebra()


def save_algebra(alg: FiniteLAlgebra, path: str | Path) -> None:
    """Write the algebra, validated first: a file the tool writes must read back."""
    validate(alg.table, alg.unit, labels=alg.labels, name=alg.name)
    p = Path(path)
    doc = algebra_to_document(alg)
    if p.suffix == ".json":
        p.write_text(serialize_algebra_json(doc), encoding="utf-8")
    else:
        p.write_text(serialize_algebra_text(doc), encoding="utf-8")


def parse_poset_text(text: str) -> PosetSpec:
    """Poset files: an ``elements:`` line, a ``top:`` line, ``cover a < b`` lines."""
    covers: list[tuple[str, str]] = []

    def cover(found: dict, toks: list[str], lineno: int, raw: str) -> None:
        if len(toks) != 4 or toks[2] != "<":
            raise _error(lineno, raw, 0, "cover syntax is: cover <low> < <high>")
        covers.append((toks[1], toks[3]))

    found, _ = _read_lines(text, {"top": True}, "cover", cover)
    return PosetSpec(elements=tuple(found["elements"]), covers=tuple(covers), top=found["top"])


def _report_payload(report: "LawReport", include_timing: bool) -> dict:
    stats: dict = {"instances": report.instances}
    if include_timing:
        stats["time_s"] = round(report.time_s, 6)
    payload: dict = {
        "law": report.law,
        "corpus": report.corpus,
        "verdict": report.verdict,
        "stats": stats,
    }
    if report.detail is not None:
        payload["detail"] = report.detail
    if report.witness is not None:
        payload["witness"] = report.witness
    return payload


def json_array(blocks: Iterable[Sequence]) -> Iterator[str]:
    """A compact JSON array in pieces, one ``json.dumps`` per (non-empty) block."""
    yield "["
    for k, block in enumerate(blocks):
        yield ("," if k else "") + json.dumps(block, separators=(",", ":"))[1:-1]
    yield "]"


def serialize_report(
    reports: Sequence["LawReport"],
    format: str = "text",
    include_timing: bool = True,
) -> str:
    """Stable-order report rendering; JSON is schema-versioned.

    Timing sits in its own ``stats.time_s`` field (JSON) or a trailing
    parenthetical (text) so deterministic comparisons can drop it.
    """
    if format == "json":
        laws = groupby(reports, key=lambda r: r.law)
        rows = "".join(json_array([_report_payload(r, include_timing) for r in group] for _, group in laws))
        return f'{{"schema":{REPORT_SCHEMA},"reports":{rows}}}'
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = []
    for r in reports:
        mark = "PASS" if r.verdict == "pass" else "FAIL"
        suffix = f" ({r.instances} instances"
        if include_timing:
            suffix += f", {r.time_s * 1000:.1f}ms"
        suffix += ")"
        detail = f" -- {r.detail}" if r.detail else ""
        lines.append(f"{mark} {r.law} :: {r.corpus}{suffix}{detail}")
        if r.witness is not None:
            compact = {k: v for k, v in r.witness.items() if k != "algebra_document"}
            lines.append(f"     witness: {json.dumps(compact, separators=(',', ':'))}")
    return "\n".join(lines) + ("\n" if lines else "")
