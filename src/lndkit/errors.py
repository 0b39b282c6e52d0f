"""Exception types shared across the toolkit."""


class LndkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(LndkitError):
    """Malformed polynomial expression."""


class UnknownVariable(ParseError):
    """Identifier not declared in the ambient variable list."""


class ArityMismatch(LndkitError):
    """Operands live in rings with different variable counts."""


class IndexOutOfRange(LndkitError):
    """Variable index outside the ring's arity."""


class ResourceLimit(LndkitError):
    """Configurable computation budget exceeded (e.g. S-pair cap)."""


class PointNotOnVariety(LndkitError):
    """Point fails to satisfy the given relations."""


class DimensionMismatch(LndkitError):
    """Lattice vector length differs from the cone dimension."""


class DegenerateCone(LndkitError):
    """Cone is not pointed or not full-dimensional."""


class InvalidData(LndkitError):
    """Trinomial input violates a construction invariant."""


class UnreducedPresentation(InvalidData):
    """Type-2 data contains a single-variable monomial; reduce r first."""


class BadChoiceFunction(InvalidData):
    """Choice function incompatible with the exponent-1 structure."""


class BadWeights(InvalidData):
    """Suspension weights must start with 1."""


class NotVerifiedLND(LndkitError):
    """Operation requires a bounded nilpotency verification first."""


class NotASlice(LndkitError):
    """Supplied element does not map to 1 under the derivation."""


class NoLNDs(LndkitError):
    """Dossier supplies no derivations."""


class IncompatibleGrading(LndkitError):
    """Weight vector does not make all relations homogeneous."""


class ZeroDerivation(LndkitError):
    """Operation undefined for the zero derivation."""


class ReservedVariable(LndkitError):
    """User variable collides with an internally reserved name."""
