"""Exception hierarchy shared across the package.

Every error raised by library code derives from ConecertError so that the
CLI can map failures onto its exit codes in one place.
"""


class ConecertError(Exception):
    """Base class for all library errors."""


class InternalCheckError(ConecertError):
    """A self-consistency assertion failed; carries the failing clause."""

    def __init__(self, clause: str):
        super().__init__(f"internal check failed: {clause}")
        self.clause = clause


# -- exact algebra ------------------------------------------------------------

class NonSquareError(ConecertError):
    pass


class SingularMatrixError(ConecertError):
    pass


class ZeroPolynomialError(ConecertError):
    pass


class NotAnEigenvalueError(ConecertError):
    pass


class NonSemisimpleAtQError(ConecertError):
    """The candidate eigenvalue has a nontrivial Jordan block."""


# -- cones --------------------------------------------------------------------

class EmptyInputError(ConecertError):
    pass


class ContainsLineError(ConecertError):
    pass


class CapExceededError(ConecertError):
    pass


class DimensionMismatchError(ConecertError):
    pass


class NotInConeError(ConecertError):
    pass


class ForeignFaceError(ConecertError):
    pass


# -- dynamics -----------------------------------------------------------------

class InvarianceNotVerifiedError(ConecertError):
    pass


class NotPowerBoundedError(ConecertError):
    pass


class IrrationalCandidateOnlyError(ConecertError):
    """A positive real eigenvalue exists but is irrational.

    The minimal polynomial of one such eigenvalue is attached so callers can
    report it instead of silently dropping the candidate.
    """

    def __init__(self, minpoly):
        super().__init__(f"only irrational positive real eigenvalue candidates exist; "
                         f"minimal polynomial {minpoly}")
        self.minpoly = minpoly


class NoIntegerRootError(ConecertError):
    pass


class ShapeMismatchError(ConecertError):
    pass


# -- lattice / singularities ---------------------------------------------------

class SingularEndomorphismError(ConecertError):
    pass


class TrivialElementError(ConecertError):
    pass


class PreconditionViolatedError(ConecertError):
    pass


# -- cli ------------------------------------------------------------------------

class ScenarioError(ConecertError):
    """Scenario file is missing, unreadable, or fails schema validation."""
