"""Exception hierarchy shared by every cokrig module.

All library errors derive from :class:`CokrigError` so callers can catch
one base class.  The split below mirrors how the command line maps
failures to exit codes: input/validation problems (exit 2) versus
numerical problems discovered mid-computation (exit 3).
"""


class CokrigError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CokrigError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Examples: non-positive decay rate, gap vector with a zero entry,
    design whose gaps do not fill the stated interval.
    """


class ExtrapolationError(DomainError):
    """A prediction location falls outside the sampled interval.

    The closed-form error expressions only hold for interpolation, so
    requests outside ``[x_start, x_end]`` are refused rather than
    silently extrapolated.
    """


class ValidationError(CokrigError, ValueError):
    """A covariance model's parameters violate its family's validity rules."""


class ParseError(CokrigError, ValueError):
    """Malformed text input (CSV rows, config files, design files)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConditioningError(CokrigError, ArithmeticError):
    """A covariance matrix is singular or too ill-conditioned to factor.

    Raised both by explicit guards (near-coincident sites) and when a
    Cholesky factorization fails.  No pseudo-inverse fallback is
    attempted anywhere in the package.
    """


class NumericError(CokrigError, ArithmeticError):
    """A numerical routine failed to converge to the requested accuracy."""
