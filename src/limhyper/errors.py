"""Exception types shared across the package."""


class LimHyperError(Exception):
    """Base class for every error raised by this library."""


class AxiomViolation(LimHyperError):
    """A candidate open family fails the topology axioms.

    ``witness`` holds a pair of opens whose union or intersection is
    missing, when that is what went wrong.
    """

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class GroundMismatch(LimHyperError):
    """A point or point set refers outside the ground set of its space."""


class BudgetExceeded(LimHyperError):
    """An exhaustive operation was asked to go beyond its configured budget."""


class NotOpen(LimHyperError):
    """A set that must be open is not open."""


class NotInCarrier(LimHyperError):
    """A set is not an element of the carrier under consideration."""


class InvariantViolation(LimHyperError):
    """A computed result contradicts a property its construction guarantees."""


class ParseError(LimHyperError):
    """Malformed input document."""


class DuplicateLabel(ParseError):
    """A point label occurs more than once in a space document."""
