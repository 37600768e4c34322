"""Exception hierarchy shared across the package."""


class DanceBeatError(Exception):
    """Base class for all package errors."""


class ShapeError(DanceBeatError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(DanceBeatError):
    """A configuration value violates its constraints."""


class ContractError(DanceBeatError):
    """An API contract was violated by the caller."""


class NumericalError(DanceBeatError):
    """Training or evaluation produced a non-finite value."""


class ParseError(DanceBeatError):
    """A text artifact could not be parsed.

    Carries the file and the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
