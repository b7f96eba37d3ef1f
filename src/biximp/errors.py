"""Exception hierarchy shared by all modules.

cli.main maps these onto process exit codes: numerical failures exit 1,
configuration/IO problems exit 2, physical-regime violations exit 3.
"""


class BiximpError(Exception):
    """Base class for all package errors."""


class ConfigError(BiximpError):
    """Malformed or missing configuration input."""


class RegimeError(BiximpError):
    """Parameters outside the physical regime an operation supports."""


class ParameterError(RegimeError):
    """Invalid model parameters (wrong parity, zero couplings, ...)."""


class ExistenceError(RegimeError):
    """A requested bound-state solution does not exist for these parameters."""


class TimingError(RegimeError):
    """A time-resolved measurement was requested before it is well defined."""


class NumericalError(BiximpError):
    """Root search or eigensolver failed to converge to tolerance."""


class RangeError(NumericalError):
    """Intermediate quantity overflowed the floating-point range."""
