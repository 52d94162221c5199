"""Exception hierarchy shared across the package.

Every error raised by library code derives from ConecertError so that the
CLI can map failures onto its exit codes in one place. A refusal of the
polarization decision is a verdict (`dynamics.PolarizationStatus`), not an
error: the decision raises only on misuse or a failed internal check.
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
    """No longer raised: `decide_polarization` returns the IRRATIONAL_ONLY
    verdict instead. Kept because `perfbench/workloads.py` imports it."""


class NoIntegerRootError(ConecertError):
    pass


# -- lattice / singularities ---------------------------------------------------

class PreconditionViolatedError(ConecertError):
    pass


# -- cli ------------------------------------------------------------------------

class ScenarioError(ConecertError):
    """Scenario file is missing, unreadable, or fails schema validation."""
