"""Command-line interface.

Exit codes: 0 on success (laws: all pass), 1 on law or validation failure,
2 on usage and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import constructions
from .core import structure_flags
from .errors import (
    AxiomViolation, LAlgebraError, MalformedTable, ParseError, SizeTooLarge, UnwritableLabel
)
from .formats import (
    algebra_to_document,
    json_array,
    load_algebra,
    parse_poset_text,
    save_algebra,
    serialize_algebra_text,
    serialize_report,
)
from .ideals import braced, close_under_rules, enumerate_ideals, is_ideal, labels_of, mask_of, quotient
from .laws import all_pass, run_suite
from .spectrum import compact_basis_failure, prime_ideals, spectrum_facts, topology_report


@functools.cache  # built on the first call of ``main``; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lalg",
        description="Workbench for finite L-algebras: ideal lattices, spectra, laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a table and print its structure flags")
    p.add_argument("file")

    p = sub.add_parser("ideals", help="enumerate the ideal lattice")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="compute the prime spectrum")
    p.add_argument("file")
    p.add_argument("--topology", action="store_true", help="also verify T0/sobriety/compactness")

    p = sub.add_parser("laws", help="run the law suite over a corpus")
    p.add_argument("files", nargs="*", metavar="FILE")
    p.add_argument("--enumerate", type=int, metavar="N", dest="enumerate_n",
                   help="use every algebra with up to N elements as the corpus")
    p.add_argument("--iso", action="store_true",
                   help="one representative per isomorphism class when enumerating")
    p.add_argument("--law", action="append", metavar="ID", dest="law_selection",
                   help="run only this law (repeatable)")
    p.add_argument("--list", action="store_true", help="list the registered laws and exit")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timing", action="store_true", help="omit timing for stable output")

    p = sub.add_parser("construct", help="build derived algebras")
    csub = p.add_subparsers(dest="construction", required=True)
    for kind in ("product", "ordered-sum"):
        cp = csub.add_parser(kind)
        cp.add_argument("left")
        cp.add_argument("right")
        cp.add_argument("-o", "--output", required=True)
    cp = csub.add_parser("poset")
    cp.add_argument("posetfile")
    cp.add_argument("-o", "--output", required=True)

    p = sub.add_parser("quotient", help="quotient an algebra by an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, metavar="LABELS",
                   help="comma-separated member labels of the ideal")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("fixtures", help="list or emit the built-in fixtures")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--emit", metavar="NAME")

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    alg = load_algebra(args.file)
    flags = structure_flags(alg)
    print(f"{alg.name}: valid L-algebra with {alg.n} element(s), unit {alg.label(alg.unit)}")
    for key in ("sharp", "discrete", "brouwerian", "meet_closed", "self_similar"):
        print(f"  {key}: {'yes' if getattr(flags, key) else 'no'}")
    for note in flags.diagnostics:
        print(f"  note: {note}")
    return 0


#: ``lalg ideals --json`` prints three m x m tables, 56 MB at m = 2,048 and 228 MB
#: at 4,096 (19 and 21 MB peak RSS), so above this many ideals it is a usage error.
IDEALS_JSON_CAP = 2048
JSON_BLOCK_ROWS = 32  # rows per write (ideal lists: per json.dumps call) of ``lalg ideals --json``


def _cmd_ideals(args: argparse.Namespace) -> int:
    alg = load_algebra(args.file)
    lat = enumerate_ideals(alg)
    masks = lat.masks
    if args.json and len(lat) > IDEALS_JSON_CAP:
        raise _Usage(f"{len(lat)} ideals exceed the --json cap of {IDEALS_JSON_CAP}")
    if args.json:
        # checks before any output: a down-set is a union of join-irreducibles', so those joins decide
        index, downsets, by_downset = lat._index, lat.downsets, lat.by_downset
        for j in [index[q] for q in lat.join_irreducibles]:
            if not by_downset.keys() >= {a | downsets[j] for a in downsets}:  # lat.join raises on the miss
                lat.join(next(i for i, a in enumerate(downsets) if a | downsets[j] not in by_downset), j)
        residuals = lat.residuals()  # raises on a residual that is no ideal
        # each entry is an index string made once, found through the mask, down-set or I \ J dict
        name = [str(k) for k in range(len(lat))]
        complements = [~b for b in masks]
        meet, join, res = ({key: name[k] for key, k in d.items()} for d in (index, by_downset, residuals))
        rows = {
            "meet": lambda a, _: [meet[a & b] for b in masks],
            "join": lambda _, d: [join[d | e] for e in downsets],
            "residuation": lambda a, _: [res[a & c] for c in complements],
        }
        blocks = [slice(b, b + JSON_BLOCK_ROWS) for b in range(0, len(lat), JSON_BLOCK_ROWS)]
        sys.stdout.write(f'{{"schema":1,"algebra":{json.dumps(alg.name)},"ideals":')
        sys.stdout.writelines(json_array([labels_of(alg, a) for a in masks[b]] for b in blocks))
        for key, row in rows.items():
            sys.stdout.write(f',"{key}":[')
            for k, b in enumerate(blocks):
                block = ",".join(f"[{','.join(row(a, d))}]" for a, d in zip(masks[b], downsets[b]))
                sys.stdout.write("," + block if k else block)
            sys.stdout.write("]")
        sys.stdout.write("}\n")
        return 0
    print(f"{alg.name}: {len(lat)} ideal(s)")
    for mask in masks:
        print(f"  {braced(alg, mask)}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    # the points need no lattice; only the topology report reads one
    alg = load_algebra(args.file)
    if args.topology:
        lat = enumerate_ideals(alg)
        spec = prime_ideals(lat)
        points = tuple(lat.masks[p] for p in sorted(spec.points))
    else:
        points = spectrum_facts(alg, {})[1]
    print(f"{alg.name}: {len(points)} point(s)")
    for mask in points:
        print(f"  {braced(alg, mask)}")
    if args.topology:
        rep = topology_report(spec)
        print(f"T0: {'yes' if rep.t0 else 'NO'}")
        print(f"sober: {'yes' if rep.sober else 'NO'}")
        bad = compact_basis_failure(spec)
        biggest = max(rep.min_generators, default=0)
        print(f"quasi-compact basis: {'yes' if bad is None else 'NO'} (largest minimal generating set: {biggest})")
        for w in rep.witnesses:
            print(f"  problem: {w}")
        if bad is not None:
            print(f"  problem: U_I is not the union of its principal opens for I = {braced(alg, lat.masks[bad])}")
        return 0 if rep.t0 and rep.sober and bad is None else 1
    return 0


def _laws_corpus(args: argparse.Namespace) -> list[constructions.Fixture]:
    if args.files and args.enumerate_n is not None:
        raise _Usage("FILE arguments and --enumerate are mutually exclusive")
    if args.enumerate_n is not None:
        if args.enumerate_n < 1:
            raise _Usage("--enumerate needs N >= 1; an empty corpus checks nothing")
        corpus = []
        for n in range(1, args.enumerate_n + 1):
            corpus.extend(
                constructions.Fixture(a.name, a)
                for a in constructions.enumerate_all(n, up_to_iso=args.iso)
            )
        return corpus
    if args.files:
        corpus = []
        for f in args.files:
            alg = load_algebra(f)
            corpus.append(constructions.Fixture(alg.name, alg))
        return corpus
    corpus = list(constructions.fixtures())
    seen = {f.name for f in corpus}
    corpus.extend(p for p in constructions.product_pairs() if p.name not in seen)
    return corpus


def _cmd_laws(args: argparse.Namespace) -> int:
    if args.list:
        from .laws import LAWS

        for law in LAWS:
            print(f"{law.id:36s} {law.description}")
        return 0
    corpus = _laws_corpus(args)
    try:
        reports = run_suite(corpus, laws=args.law_selection)
    except KeyError as exc:
        raise _Usage(f"{exc.args[0]}; see `lalg laws --list`") from None
    out = serialize_report(
        reports,
        format="json" if args.json else "text",
        include_timing=not args.no_timing,
    )
    sys.stdout.write(out)
    if not args.json:
        passed = sum(1 for r in reports if r.verdict == "pass")
        print(f"{passed}/{len(reports)} law checks passed on {len(corpus)} algebra(s)")
    return 0 if all_pass(reports) else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.construction == "poset":
        spec = parse_poset_text(Path(args.posetfile).read_text(encoding="utf-8"))
        try:
            alg = constructions.poset_algebra(spec)
        except ValueError as exc:  # PosetSpec.leq_matrix: not a poset with that top
            raise _Usage(f"{args.posetfile}: {exc}") from None
    else:
        left = load_algebra(args.left)
        right = load_algebra(args.right)
        if args.construction == "product":
            alg = constructions.product(left, right)
        else:
            alg = constructions.ordered_sum(left, right)
    save_algebra(alg, args.output)
    print(f"wrote {alg.name} ({alg.n} elements) to {args.output}")
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    alg = load_algebra(args.file)
    labels = [s for s in (t.strip() for t in args.ideal.split(",")) if s]
    try:
        members = mask_of(alg.index_of(lab) for lab in labels)
    except KeyError as exc:
        raise _Usage(exc.args[0]) from None
    if not is_ideal(alg, members):
        print(
            f"{{{','.join(labels)}}} is not an ideal of {alg.name}; "
            f"the least ideal containing it is {braced(alg, close_under_rules(alg, members))}",
            file=sys.stderr,
        )
        return 1
    quot = quotient(alg, members).algebra
    save_algebra(quot, args.output)
    print(f"wrote {quot.name} ({quot.n} elements) to {args.output}")
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    fixtures = constructions.fixtures()
    if args.list:
        for f in fixtures:
            facts = ", ".join(f"{k}={v}" for k, v in f.expected.items())
            print(f"{f.name:12s} n={f.algebra.n:<3d} {facts}")
        return 0
    for f in fixtures:
        if f.name == args.emit:
            sys.stdout.write(serialize_algebra_text(algebra_to_document(f.algebra)))
            return 0
    print(f"unknown fixture {args.emit!r}; try `lalg fixtures --list`", file=sys.stderr)
    return 2


class _Usage(Exception):
    pass


_HANDLERS = {
    "validate": _cmd_validate,
    "ideals": _cmd_ideals,
    "spectrum": _cmd_spectrum,
    "laws": _cmd_laws,
    "construct": _cmd_construct,
    "quotient": _cmd_quotient,
    "fixtures": _cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (_Usage, SizeTooLarge, UnwritableLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AxiomViolation, MalformedTable) as exc:
        if isinstance(exc, AxiomViolation):
            print(f"not an L-algebra: {len(exc.violations)} violation(s)", file=sys.stderr)
            for v in exc.violations:
                print(f"  {v}", file=sys.stderr)
        else:
            print(f"malformed table: {exc}", file=sys.stderr)
        return 1
    except LAlgebraError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
