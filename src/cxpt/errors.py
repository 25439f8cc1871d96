"""Exception types shared across the library."""

__all__ = [
    "CxptError",
    "NonFiniteIntegrandError",
    "InvalidRadiusError",
    "SingularPointError",
    "AmbiguousBranchError",
    "AxisDegenerateError",
    "YZeroError",
    "InvalidIndexError",
    "InsufficientSmoothnessError",
    "UnsupportedDimensionError",
    "WindowTooSmallError",
    "DimensionMismatchError",
    "OnBoundaryError",
    "NotRegularError",
    "ConfigParseError",
    "ConvergenceError",
]


class CxptError(Exception):
    """Base class for all library errors."""


class NonFiniteIntegrandError(CxptError):
    """An integrand returned NaN or infinity at a quadrature node."""


class InvalidRadiusError(CxptError):
    """A sphere mean was requested with a negative radius."""


class SingularPointError(CxptError):
    """Evaluation requested on the singular set (gamma = 0 or r = 0)."""


class AmbiguousBranchError(CxptError):
    """A branch-cut point was queried without an approach side."""


class AxisDegenerateError(CxptError):
    """The transverse direction sigma is undefined on the axis (rho = 0)."""


class YZeroError(CxptError):
    """The oblate coordinate system needs a nonzero axis vector."""


class InvalidIndexError(CxptError):
    """Index pair outside the valid range of the coefficient table."""


class InsufficientSmoothnessError(CxptError):
    """The test field does not declare the smoothness an operation needs."""


class UnsupportedDimensionError(CxptError):
    """The requested dimension is outside the implemented range."""


class WindowTooSmallError(CxptError):
    """A truncation window does not cover the source support."""


class DimensionMismatchError(CxptError):
    """Operands live in algebras or spaces of different dimension."""


class OnBoundaryError(CxptError):
    """Evaluation point lies on the domain boundary (trace limits not taken)."""


class NotRegularError(CxptError):
    """The complex point is not regular with respect to the boundary."""


class ConfigParseError(CxptError):
    """A configuration file line could not be parsed or validated."""


class ConvergenceError(CxptError):
    """An adaptive approximation did not reach rounding level within its cap."""
