"""Per-layer tracing from outside the program.

The tracer replaces public functions of the lalg modules with wrappers for
the length of a traced round and puts the originals back afterwards.  A
wrapper records a span (name, parent, start, end) and, for a few functions,
a count of what they returned.  The hottest helpers (``is_ideal``,
``close_under_rules``) only count calls: a span per call would cost more
than the call.  Lazily built structures get spans of their own because the
functions that build them (``enumerate_ideals``, ``prime_ideals``,
``structure_flags``, ``derive_order``, ``topology_report``) are wrapped, so
their time is not billed to the law that first touches them.

A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = ("core", "ideals", "spectrum", "laws", "constructions", "formats", "cli")

#: Functions timed as spans, by module.
SPANNED = {
    "core": ("validate", "derive_order", "structure_flags"),
    "ideals": ("enumerate_ideals", "quotient", "congruence_of"),
    "spectrum": (
        "prime_ideals",
        "topology_report",
        "relative_spectrum",
        "prime_quotient_oracle",
        "quasi_prime_elements",
    ),
    "constructions": ("product", "poset_algebra"),
    "formats": ("load_algebra", "serialize_report"),
    "laws": ("run_suite",),
    "cli": ("main",),
}

#: Functions whose calls are only counted.
COUNTED = {"ideals": ("is_ideal", "close_under_rules")}

#: The law ids at the time the benchmark was written; each gets laws.<id>.s.
LAW_IDS = (
    "validate.axioms",
    "order.partial-order",
    "product.uniqueness",
    "product.adjunction",
    "meet.glb",
    "meet.brouwerian-distributive",
    "selfsimilar.iff-singleton",
    "ideal-lattice.distributive",
    "join.witness-form",
    "residuation.adjunction",
    "ideal-lattice.is-l-algebra",
    "ideal.upper-subalgebra",
    "congruence.bijection",
    "quotient.morphism",
    "prime.definitions-agree",
    "prime.iff-quotient-irreducible",
    "spectrum.t0-sober",
    "spectrum.compact-basis",
    "spectrum.frame-bijection",
    "spectrum.spatial",
    "prime-elements.quasiprime",
    "prime-elements.attachment",
    "relative-spectrum.bijection",
    "principal-ideals.meet-join",
    "point-map.brouwerian",
    "product.factorization",
)

S, COUNT = "s", "count"

#: Every per-layer metric, as (name, unit, better).
METRICS = (
    ("ideals.enumerate_ideals.s", S, "lower"),
    ("ideals.enumerate_ideals.calls", COUNT, "lower"),
    ("ideals.ideals_found", COUNT, "lower"),
    ("ideals.IdealLattice.s", S, "lower"),
    ("ideals.is_ideal.calls", COUNT, "lower"),
    ("ideals.candidates_per_ideal", "calls/ideal", "lower"),
    ("ideals.close_under_rules.calls", COUNT, "lower"),
    ("ideals.quotient.s", S, "lower"),
    ("ideals.congruence_of.s", S, "lower"),
    ("spectrum.prime_ideals.s", S, "lower"),
    ("spectrum.topology_report.s", S, "lower"),
    ("spectrum.relative_spectrum.s", S, "lower"),
    ("spectrum.prime_quotient_oracle.s", S, "lower"),
    ("spectrum.quasi_prime_elements.s", S, "lower"),
    ("core.validate.s", S, "lower"),
    ("core.validate.calls", COUNT, "lower"),
    ("core.derive_order.s", S, "lower"),
    ("core.structure_flags.s", S, "lower"),
    ("constructions.enumerate_all.s", S, "lower"),
    ("constructions.enumerate_all.tables", COUNT, "higher"),
    ("constructions.product.s", S, "lower"),
    ("constructions.poset_algebra.s", S, "lower"),
    ("laws.self.s", S, "lower"),
    ("laws.rows", COUNT, "higher"),
    *((f"laws.{law}.s", S, "lower") for law in LAW_IDS),
    ("formats.serialize_report.s", S, "lower"),
    ("formats.report_bytes", "B", "lower"),
    ("formats.load_algebra.s", S, "lower"),
    ("cli.self.s", S, "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    *((f"{layer}.self.s", S, "lower") for layer in LAYERS if layer not in ("laws", "cli")),
    ("trace.overhead_s", S, "lower"),
    ("trace.spans", COUNT, "lower"),
)


class Tracer:
    """Spans and counters for the rounds run between install and uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn, tally=None):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if tally is not None:
                counter, size = tally
                self.counts[counter] += size(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name: str, fn):
        """One span per resumption of the generator; yields are counted."""

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                self.counts[name + ".tables"] += 1
                yield item

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions wherever a lalg module holds them."""
        mods = {name: sys.modules[f"lalg.{name}"] for name in LAYERS}
        holders = [sys.modules["lalg"], *mods.values()]
        tallies = {  # counters fed by what a spanned function returns
            "ideals.enumerate_ideals": ("ideals.ideals_found", len),
            "laws.run_suite": ("laws.rows", len),
            "formats.serialize_report": ("formats.report_bytes", lambda text: len(text.encode())),
        }
        for layer, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                full = f"{layer}.{fname}"
                self._replace(holders, fn, self._spanned(full, fn, tallies.get(full)))
        for layer, names in COUNTED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                self._replace(holders, fn, self._counted(f"{layer}.{fname}.calls", fn))
        enum = mods["constructions"].enumerate_all
        self._replace(holders, enum, self._generator("constructions.enumerate_all", enum))

        lattice = mods["ideals"].IdealLattice
        init = lattice.__init__
        lattice.__init__ = self._spanned("ideals.IdealLattice", init)
        self._undo.append(lambda: setattr(lattice, "__init__", init))

        for law in mods["laws"].LAWS:  # frozen dataclasses: set through object
            check = law.check
            object.__setattr__(law, "check", self._spanned(f"laws.{law.id}", check))
            self._undo.append(lambda law=law, check=check: object.__setattr__(law, "check", check))

    def _replace(self, holders, original, wrapper) -> None:
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda mod=mod, attr=attr: setattr(mod, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- summaries -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Remember where a round starts."""
        return len(self.names), Counter(self.counts)

    def round_metrics(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded after ``since``."""
        first, counts_before = since
        last = len(self.names)
        child = [0.0] * (last - first)
        for sid in range(first, last):
            parent = self.parents[sid]
            if parent >= first:
                child[parent - first] += self.ends[sid] - self.starts[sid]
        self_time: Counter = Counter()
        for sid in range(first, last):
            own = self.ends[sid] - self.starts[sid] - child[sid - first]
            name = self.names[sid]
            self_time[name] += own
            self_time[name.split(".", 1)[0] + ".self"] += own
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        calls = Counter(self.names[first:last])

        out: dict[str, float] = {}
        for name, _unit, _better in METRICS:
            if name.endswith(".s"):
                out[name] = self_time[name[: -len(".s")]]
            elif name.endswith(".calls") and name[: -len(".calls")] in calls:
                out[name] = calls[name[: -len(".calls")]]
            else:
                out[name] = counts[name]
        found = counts["ideals.ideals_found"]
        out["ideals.candidates_per_ideal"] = counts["ideals.is_ideal.calls"] / found if found else 0.0
        out["trace.spans"] = last - first
        return out

    def spans(self) -> list[list]:
        """All spans as [name, start, end, parent], parent -1 for a root."""
        return [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]
