"""Exception types shared across the library.

The CLI maps these onto exit codes: InputError and its subclasses are
usage/data problems (exit 2), VerificationError marks a mathematical check
that failed on otherwise well-formed input (exit 1), and the remaining
runtime errors mean a numerical procedure could not certify its result at
the requested precision (exit 3).
"""


class InputError(ValueError):
    """Malformed input: bad construction arguments, parse failures,
    out-of-domain evaluation requests."""


class PoleError(InputError):
    """The completed gamma factor was evaluated at one of its poles."""


class VerificationError(RuntimeError):
    """A mathematical consistency check failed (functional-equation
    mismatch, nonzero deflation remainder, hypothesis violation promoted
    to an error by the caller)."""


class InsufficientCoefficients(RuntimeError):
    """The stored Dirichlet coefficients do not reach far enough to meet
    the requested error target."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class QuadratureError(RuntimeError):
    """A kernel line reached its node cap before the nodes it drops fell
    below the share of the error budget they may take."""


class CertificationError(RuntimeError):
    """A zero count or winding number could not be certified (margin too
    small after all radius retries, or the phase residual stayed away
    from a multiple of 2*pi)."""


class ConventionError(RuntimeError):
    """The closed-form zeta-polynomial disagreed with the transform under
    every supported Stirling-number convention."""
