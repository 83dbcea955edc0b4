"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ParseError(ValueError):
    """A data file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataError(ValueError):
    """Dataset content violates an expected contract."""


class ConfigError(ValueError):
    """A run configuration is invalid or incomplete."""


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or inconsistent with the run."""


class CapabilityError(RuntimeError):
    """The requested operation is unsupported by this model variant."""


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN or infinite loss; no update was applied."""
