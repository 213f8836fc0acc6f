"""Exception types shared across the package."""


class WielandtLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(WielandtLabError):
    """Operands have incompatible shapes."""


class NotPSD(WielandtLabError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class Singular(WielandtLabError):
    """A matrix required to be invertible is numerically singular."""


class InvalidExponent(WielandtLabError):
    """Spectral powers require a finite, strictly positive exponent."""


class InvalidBounds(WielandtLabError):
    """Spectral bounds must be finite with 0 < m <= M (strict where noted)."""


class PreconditionViolated(WielandtLabError):
    """Inputs fail the stated hypotheses of a check."""


class DegenerateBounds(WielandtLabError):
    """A ratio is undefined because m == M makes its denominator zero."""
