"""Exception types shared across the toolkit."""

__all__ = ["BsdkitError", "ShapeError", "DomainError", "ParameterError", "NumericError",
           "ActionSingularityError", "SamplingError", "ConfigurationError"]


class BsdkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(BsdkitError, ValueError):
    """Input has the wrong dimensions or violates a structural constraint."""


class DomainError(BsdkitError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ParameterError(BsdkitError, ValueError):
    """A parameter is out of range or otherwise invalid."""


class NumericError(BsdkitError, ArithmeticError):
    """A numerical routine failed to converge or produced an invalid value."""


class ActionSingularityError(BsdkitError, ArithmeticError):
    """A fractional-linear action hit a singular denominator."""


class SamplingError(BsdkitError, RuntimeError):
    """A random sampler exhausted its retry budget."""


class ConfigurationError(BsdkitError, ValueError):
    """A check was configured inconsistently (e.g. too few samples for a fit)."""
