"""Exception types shared across the workbench.

Two families matter.  Input errors (``MalformedTable``, ``AxiomViolation``,
``ParseError``, ``SizeTooLarge``) flag bad data handed to us.  Falsification
errors flag the other thing entirely: a machine-checked mathematical claim
failed on a concrete finite instance.  Those claims are theorems, so a
falsification error firing on validated input means either a bug in this
code or a counterexample to the theory; either way it must surface with a
replayable witness and is never repaired or swallowed.

Builders (``quotient``, ``congruence_of``, ``product``, ``ordered_sum``,
``poset_algebra``, ``enumerate_all``, ``quasi_prime_elements``) do not
re-prove theorems; ``validate`` runs where a table enters or leaves.  A
falsification error is raised by the checks the laws run, or where a
computation has no single answer to return: a partial product with two
witnesses, a lattice table entry missing from the ideal family, an
ambiguous attachment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


class LAlgebraError(Exception):
    """Base class for all workbench errors."""


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: which axiom, on which element tuple."""

    axiom: str  # "unit" | "exchange" | "antisymmetry"
    witness: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"[{self.axiom}] {self.message}"


class MalformedTable(LAlgebraError):
    """Table is not a square matrix of in-range indices with sane labels."""


class AxiomViolation(LAlgebraError):
    """The candidate table breaks the defining axioms.

    Carries the complete list of violated instances, not just the first,
    so table authors get full diagnostics in one pass.
    """

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"{len(self.violations)} axiom violation(s): {head}{more}")


class FalsificationError(LAlgebraError):
    """A checked theorem failed; carries a JSON-able witness for replay."""

    def __init__(self, message: str, witness: dict[str, Any] | None = None):
        self.witness = witness or {}
        super().__init__(message)


class NonUniqueProduct(FalsificationError):
    """Two distinct witnesses for one partial product x = y * z, z <= y."""


class DistributivityFailure(FalsificationError):
    """The ideal lattice does not embed into the sets of its join-irreducibles:
    two ideals share a down-set, a join-irreducible is not join-prime, no
    ideal has the union of two down-sets, or a join-irreducible has no dual
    prime ideal."""


class JoinWitnessMismatch(FalsificationError):
    """The witness join, the closure join and the lattice join disagree."""


class ResiduationNotGreatest(FalsificationError):
    """Element-wise I*J is not the greatest ideal K with K n I inside J."""


class MaximalAvoiderNotPrime(FalsificationError):
    """An ideal maximal among those avoiding x is not prime."""


class NonUniqueAttachment(FalsificationError):
    """A quasi-prime element has several maximal avoiding ideals."""


class BijectionFailure(FalsificationError):
    """Relative-spectrum correspondence failed to invert."""


class SpatialityFailure(FalsificationError):
    """Some ideal is not the intersection of the primes above it."""


class SizeTooLarge(LAlgebraError):
    """An input above a size cap (carrier or enumeration): a usage error."""


class UnwritableLabel(LAlgebraError):
    """A name or label that the line-oriented text format cannot carry."""


class ParseError(LAlgebraError):
    """Malformed input file; reports exact position."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.reason = message
        super().__init__(f"line {line}, col {col}: {message}")
