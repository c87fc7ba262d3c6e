"""The four workloads: their input algebras and the CLI commands of one round.

A round is the same list of commands every time, so every run attempts
whole rounds and the share of failed operations does not depend on the run
length.  The seed picks the element labels of the generated inputs (three
letters each, so output sizes do not move with the seed); element order
stays fixed, because the subset filter's cost depends on it by a factor of
two or more (B2^5: 3.9 to 7.0 s over element orders).
"""

from __future__ import annotations

import random
import string

import inputs

WORKLOADS = ("corpus", "enum5", "ladder", "query")


def _ladder() -> list[inputs.Table]:
    b2, c3 = inputs.b2(), inputs.chain3()
    return [
        inputs.anti(5),
        inputs.anti(6),
        inputs.anti(7),  # 128 ideals: ideal-lattice.is-l-algebra hits the 64-element cap
        inputs.power(b2, 3),
        inputs.power(b2, 4),  # n = 16: it and its sub-algebras take the subset filter
        inputs.power(c3, 2),
    ]


def _query() -> list[inputs.Table]:
    b2, c3 = inputs.b2(), inputs.chain3()
    return [
        inputs.anti(7),
        inputs.power(b2, 5),  # n = 32: above the filter limit, built by saturation
        inputs.direct_product("chain3^2xB2", [c3, c3, b2]),  # n = 18: the subset filter
    ]


def _relabel(tab: inputs.Table, rng: random.Random) -> inputs.Table:
    codes = rng.sample(range(26**3), tab.n)
    letters = string.ascii_lowercase
    labels = tuple(letters[c // 676] + letters[c // 26 % 26] + letters[c % 26] for c in codes)
    return inputs.Table(tab.name, labels, tab.unit, tab.table, tab.ideals, tab.points)


def tables(workload: str, seed: int) -> list[inputs.Table]:
    """The generated inputs of a workload; corpus and enum5 have none."""
    base = {"ladder": _ladder, "query": _query}.get(workload, list)()
    rng = random.Random(f"{workload}:{seed}")
    return [_relabel(tab, rng) for tab in base]


def file_name(tab: inputs.Table) -> str:
    return tab.name.replace("^", "_") + ".lalg"


def commands(workload: str, paths: list[str]) -> list[list[str]]:
    """The argv lists of one round, in order."""
    if workload == "corpus":
        return [["laws", "--json"]]
    if workload == "enum5":
        return [["laws", "--enumerate", "5", "--iso", "--json"]]
    if workload == "ladder":
        return [["laws", "--json", p] for p in paths]
    if workload == "query":
        return [cmd for p in paths for cmd in (["ideals", "--json", p], ["spectrum", "--topology", p])]
    raise ValueError(f"unknown workload {workload!r}")
