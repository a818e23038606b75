"""Exception hierarchy.

Every error raised by the library derives from :class:`QcfunError`, so callers
can catch one type.  Domain violations are also ``ValueError`` subclasses and
computational failures are ``ArithmeticError`` subclasses, keeping the usual
Python semantics intact.
"""

__all__ = [
    "QcfunError",
    "DomainError",
    "UnsupportedDimensionError",
    "DegenerateGeometryError",
    "ComputationError",
    "ConvergenceError",
    "DivergenceError",
    "OverflowSignal",
    "PolylineFormatError",
]


class QcfunError(Exception):
    """Base class for all library errors."""


class DomainError(QcfunError, ValueError):
    """Argument outside the documented domain of an operation."""


class UnsupportedDimensionError(DomainError):
    """A quantity was requested in a dimension where no formula exists (n >= 3)."""


class DegenerateGeometryError(DomainError):
    """Geometric input degenerate for the requested estimator (zero chord, coincident points, ...)."""


class PolylineFormatError(QcfunError, ValueError):
    """Malformed polyline CSV.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ComputationError(QcfunError, ArithmeticError):
    """Base class for runtime numerical failures."""


class ConvergenceError(ComputationError):
    """No double-precision value by the operation's routes, for one of three causes.

    * An iteration failed to converge within its cap (usually NaN-poisoned
      input), or a series cannot reach its tolerance: the hypergeometric
      series at z = 1, or a zero-balanced connection series that cancels.
    * A closed form underflows: the radius or its complement lies below the
      normal doubles (``mu_inv``, ``phi_K``, ``mu_a_inv``, ``tau2_inv`` and
      the logit inverse of ``linearized_g``).
    * A budget refusal made before any loop runs: the hypergeometric series
      would need more than its term cap (``gauss_F``).
    """


class DivergenceError(ComputationError):
    """The requested value diverges at the given argument (e.g. complete elliptic integral at 1)."""


class OverflowSignal(ComputationError):
    """The result exceeds double-precision range."""
