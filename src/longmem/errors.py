"""Exception hierarchy shared across the toolkit.

Every error raised on a contract violation derives from LongmemError so
callers (and the CLI) can distinguish toolkit failures from bugs.
"""

import contextlib


class LongmemError(Exception):
    """Base class for all toolkit errors."""


class EmbeddingParseError(LongmemError):
    """Malformed embedding file; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class DimensionMismatchError(LongmemError):
    """Inputs disagree on a dimension (embedding width, series length, ...)."""


class EmptyInputError(LongmemError):
    """An operation received no usable data (empty table, empty series, ...)."""


class LengthExceededError(LongmemError):
    """A series is longer than the padding target; chunk before padding."""


class SpectralLengthError(LongmemError):
    """Transform length is not a power of two; pad the input first."""


class DomainError(LongmemError):
    """A numeric argument lies outside the operation's domain."""


@contextlib.contextmanager
def allocating(what, nbytes, purpose="", advice=""):
    """Refuse an allocation sized by an argument as a DomainError naming the
    size: the MemoryError Python raises, or the ValueError numpy raises for a
    size past its index range, in the block becomes "{what} needs {nbytes}
    bytes (... GiB)[ for {purpose}], which could not be allocated[; {advice}]".
    `what` and `nbytes` may each be a function of no arguments, called on
    refusal alone, where working them out would cost a hot path."""
    try:
        yield
    except (MemoryError, ValueError):
        what, nbytes = (value() if callable(value) else value for value in (what, nbytes))
        raise DomainError(
            f"{what} needs {nbytes} bytes ({nbytes / 2**30:.3g} GiB){purpose and ' for ' + purpose}, "
            f"which could not be allocated{advice and '; ' + advice}"
        ) from None


class DegenerateInputError(LongmemError):
    """Input is constant or otherwise carries no usable signal."""


class ZeroPowerError(DegenerateInputError):
    """A selected periodogram bin has zero power; names dimension and bin."""

    def __init__(self, dim: int, bin_index: int):
        self.dim = dim
        self.bin_index = bin_index
        super().__init__(
            f"zero power at frequency index {bin_index} in dimension {dim}; "
            "input is constant or degenerate"
        )


class ScheduleError(LongmemError):
    """A cell schedule is malformed or inconsistent with the sequence length."""


class CostOverflowError(LongmemError):
    """Cost accounting exceeded the 64-bit integer range."""


class TrainingDivergedError(LongmemError):
    """Training loss became non-finite; carries the aborting step index."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"loss diverged (non-finite) at step {step}")


class CheckpointError(LongmemError):
    """A model checkpoint file is malformed or has an unsupported version."""
