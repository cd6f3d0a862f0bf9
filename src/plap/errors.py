"""Exception types shared across the package.

The CLI maps these onto process exit codes: InvalidConfig, ParseError and
EmptyAdmissibleSet -> 2; NonConvergence, ResonantParameter and
SingularJacobian -> 3; IoError -> 4.  A sweep that records a consistency
counterexample exits 5 without raising.  The CLI sees an EvalError from a
weight as InvalidConfig, because config.build_mesh evaluates every weight
before any solve.
"""


class PlapError(Exception):
    """Base class for all package errors."""


class InvalidConfig(PlapError):
    """A precondition on user-supplied data failed (bad bounds, exponents, ...)."""


class ParseError(PlapError):
    """Expression or config text could not be parsed.

    Attributes:
        position: character offset of the offending token, or None.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class EvalError(PlapError):
    """Expression evaluation hit an undefined operation (division by zero, 0^negative)."""


class EmptyAdmissibleSet(PlapError):
    """No admissible function exists (e.g. the weight has no positive part on the active set)."""


class NonConvergence(PlapError):
    """An iteration reached its budget with the residual above tolerance."""


class SingularJacobian(PlapError):
    """Sparse factorization of the linearized operator failed."""


class ResonantParameter(PlapError):
    """The spectral parameter sits (numerically) on an eigenvalue; solves near it are unreliable."""


class IoError(PlapError):
    """Report or CSV output could not be written."""
