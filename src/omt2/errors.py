"""Semantic exception types shared across the package: one per outcome."""


class Omt2Error(Exception):
    """Base class for all package errors."""


class DomainError(Omt2Error, ValueError):
    """An argument is outside its mathematical domain."""


class ToleranceNotMet(Omt2Error, ArithmeticError):
    """A numerical routine could not certify the requested tolerance."""


class Unachievable(Omt2Error, ValueError):
    """The requested target cannot be reached within the search bounds."""


class ConfigError(Omt2Error, ValueError):
    """Invalid, unknown, or missing configuration keys/values."""
