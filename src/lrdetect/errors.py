"""Exception types shared across the package, and the one echo of a rejected value."""

import reprlib

# Echoes a rejected value cut short: a list shows its first six items, a
# mapping its first two and an integer at most 40 characters, so an error
# never prints a whole grid or a number of thousands of digits.
echo = reprlib.Repr()
echo.maxdict = 2


class LrdetectError(Exception):
    """Base class for all package-specific errors."""


class EmbeddingFailure(LrdetectError):
    """Circulant embedding produced a significantly negative eigenvalue."""


class OverflowValue(LrdetectError):
    """A pointwise transform would exceed the floating-point range."""


class WindowExceedsSeries(LrdetectError):
    """A requested estimation window does not fit the series."""


class DegenerateBlockVariance(LrdetectError):
    """A block variance of zero makes the log-log regression undefined."""


class OutOfRangeTheta(LrdetectError):
    """Slope parameter outside the open interval (-2, 0)."""


class ZeroPeriodogramOrdinate(LrdetectError):
    """A periodogram ordinate used in the log regression is zero."""


class ConfigError(LrdetectError):
    """Invalid study or command-line configuration."""
