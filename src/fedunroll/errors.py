"""Shared exception types.

Everything derives from FedunrollError so callers can catch the whole
family; the CLI maps config problems to exit code 2 and runtime
failures to exit code 1.
"""


class FedunrollError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(FedunrollError):
    """An input array contains NaN or infinity."""


class NotPD(FedunrollError):
    """A matrix expected to be symmetric positive-definite is not."""


class DimensionMismatch(FedunrollError):
    """Operand shapes are incompatible."""


class EmptyData(FedunrollError):
    """An operation received zero rows where at least one is required."""


class NonFiniteGradient(FedunrollError):
    """A gradient step produced non-finite entries."""


class TapeMismatch(FedunrollError):
    """A recorded tape does not correspond to the supplied data."""


class LayoutMismatch(FedunrollError):
    """Parameter, gradient, or optimizer-state layouts disagree."""


class ProtocolViolation(FedunrollError):
    """A round transcript deviates from the expected message counts."""


class InvalidSetting(FedunrollError):
    """Unknown benchmark setting identifier."""


class ParseError(FedunrollError):
    """A delimited-text file could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class MissingColumn(FedunrollError):
    """A requested column is absent from the file header."""


class ConfigError(FedunrollError):
    """Invalid experiment configuration (CLI exit code 2)."""
