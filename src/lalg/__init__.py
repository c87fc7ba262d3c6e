"""lalg: a workbench for finite L-algebras.

Validate operation tables, compute ideal lattices and prime spectra, build
products, ordered sums and poset algebras, enumerate all small L-algebras,
and machine-check the structural laws of the theory on every instance.
"""

from .core import (
    MAX_CARRIER,
    FiniteLAlgebra,
    OrderRelation,
    StructureFlags,
    axiom_violations,
    derive_order,
    partial_product,
    structure_flags,
    subalgebra,
    validate,
)
from .errors import (
    AxiomViolation,
    BijectionFailure,
    DistributivityFailure,
    FalsificationError,
    JoinWitnessMismatch,
    LAlgebraError,
    MalformedTable,
    MaximalAvoiderNotPrime,
    NonUniqueAttachment,
    NonUniqueProduct,
    ParseError,
    ResiduationNotGreatest,
    SizeTooLarge,
    SpatialityFailure,
    UnwritableLabel,
    Violation,
)
from .ideals import (
    Congruence,
    IdealLattice,
    congruence_of,
    enumerate_ideals,
    is_ideal,
    quotient,
)
from . import constructions, formats, laws, spectrum  # noqa: E402  (submodule access)

__version__ = "0.1.0"
