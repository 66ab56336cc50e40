"""Exception types shared across the package."""


class OscpairsError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(OscpairsError):
    """Invalid equation name, parameter value or configuration."""


class ParseError(OscpairsError):
    """Syntax or binding error in an expression, with source offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvaluationError(OscpairsError):
    """q or a derivative is not finite at a point a run samples: singular
    or undefined there (division by zero, log of <= 0, x^y with x < 0 and
    non-integer y, ...) or overflowing.  Models give such a point as inf
    or nan, and qfunc.require_finite refuses it with this error wherever
    a run samples it; carries that point."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class IntegrationError(OscpairsError):
    """Integration could not proceed; carries the failing abscissa."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class NonOscillatoryError(OscpairsError):
    """q <= 0 somewhere in the span, so solutions need not oscillate there."""


class WindowError(OscpairsError):
    """Analysis window too short or without enough oscillation."""


class GridError(OscpairsError):
    """Sampling grid unusable for the requested operation."""


class PhaseConsistencyError(OscpairsError):
    """Quadrature phase disagrees with the pointwise arctangent."""


class IllConditionedError(OscpairsError):
    """Least-squares system too ill-conditioned to trust."""
