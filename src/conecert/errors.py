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

class ImmutableValueError(ConecertError, AttributeError):
    """An immutable value's attribute was set; an AttributeError too."""


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

    `poly` is the characteristic polynomial the decision read, on the cone's
    span; the decision isolates no root. `candidate_minpoly` names one such
    eigenvalue from roots a caller has already isolated for its report.
    """

    def __init__(self, poly):
        super().__init__("only irrational positive real eigenvalue candidates exist")
        self.poly = poly

    def candidate_minpoly(self, roots):
        """Minimal polynomial of the first positive irrational real root among
        `roots` (pairs from `roots_with_multiplicity`) whose minimal polynomial
        divides `poly`, so a root transverse to the cone's span is never named."""
        return next((root.minpoly for root, _ in roots
                     if root.is_real and not root.is_rational and root.box[0] >= 0
                     and (self.poly % root.minpoly).is_zero), None)


class NoIntegerRootError(ConecertError):
    pass


# -- lattice / singularities ---------------------------------------------------

class PreconditionViolatedError(ConecertError):
    pass


# -- cli ------------------------------------------------------------------------

class ScenarioError(ConecertError):
    """Scenario file is missing, unreadable, or fails schema validation."""
