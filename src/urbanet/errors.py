"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: usage/config problems exit 1,
data and file integrity problems exit 2, numeric failures exit 3.
"""

from __future__ import annotations


class UrbanetError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(UrbanetError):
    """A file does not conform to its declared binary/text format."""


class IntegrityError(UrbanetError):
    """Data violates a structural invariant (shapes, masks, duplicate keys)."""


class DegenerateChannelError(IntegrityError):
    """A channel is constant and cannot be min-max normalized."""


class DataError(UrbanetError):
    """Semantically invalid data for an operation (empty streams, bad masks)."""


class ShapeError(UrbanetError):
    """Array shapes are incompatible with the requested operation."""


class SpecError(UrbanetError):
    """An invalid network specification."""


class ConfigError(UrbanetError):
    """An invalid training or command-line configuration."""


class NumericError(UrbanetError):
    """A non-finite value appeared in a numeric computation."""


class DivergenceError(UrbanetError):
    """Training produced a non-finite loss; the message names the epoch."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch
