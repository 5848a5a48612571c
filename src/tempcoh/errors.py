"""Exception types shared across the package."""


class TempcohError(Exception):
    """Base class for all package-specific errors."""


class NoValidDistantFrame(TempcohError):
    """The sequence is too short to contain any frame at distant offset."""


class UsageError(TempcohError):
    """Bad command-line arguments or configuration keys/values."""


class DataFormatError(TempcohError):
    """An on-disk artifact is malformed or inconsistent."""


class CheckpointError(DataFormatError):
    """A checkpoint file cannot be read or does not match expectations."""


class NonFiniteLossError(TempcohError):
    """Training produced a NaN or infinite loss value."""
