"""Typed errors raised across the library.

Callers are expected to catch these by name; numerical routines never
return NaN silently in place of a domain failure.
"""


class GraventError(Exception):
    """Base class for all library errors."""


class DomainError(GraventError):
    """An argument lies outside the mathematical domain of the operation."""


class HorizonError(GraventError):
    """The requested point sits on or inside an event horizon."""


class ConvergenceError(GraventError):
    """Adaptive quadrature hit its interval cap with an unacceptable residual."""


class NumericalError(GraventError):
    """A computed quantity violates a structural bound beyond round-off."""


class EmptyDataError(GraventError):
    """Not enough data points to produce the requested output."""


class AssertionFailure(GraventError):
    """A physics self-check failed; the message carries the offending entry."""
