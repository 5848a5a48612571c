"""Exception types shared across the package, and the one mapping of a
failed allocation to a message naming its config keys."""

import contextlib

# The start of each message numpy gives the ValueError it raises, before
# allocating, for an array size or dimension past its limit ("array is too
# big; ...", "Maximum allowed dimension exceeded", "Maximum allowed size
# exceeded").
_NUMPY_SIZE_LIMITS = ("array is too big", "Maximum allowed ")


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


@contextlib.contextmanager
def allocating(names: str):
    """Raise a failed allocation in the block, a MemoryError or numpy's
    size-limit ValueError, as a MemoryError naming `names`, the values behind
    the sizes, then the failure's message if it has one. Any other
    ValueError passes unchanged, so a range error is never reported as out
    of memory."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_NUMPY_SIZE_LIMITS):
            raise
        raise MemoryError(f"{names}{f': {exc}' if str(exc) else ''}") from exc
