"""Exception types shared across the package, and the number checks that
config classes share."""

import math
import numbers


class DataError(Exception):
    """Input data or configuration failed validation."""


class MatrixFormatError(DataError):
    """Binary matrix file has a bad magic, version, or header."""


class MatrixTruncationError(MatrixFormatError):
    """Binary matrix payload size disagrees with its header."""


class MatrixDataError(DataError):
    """Matrix payload contains values that are not permitted (NaN)."""


class ManifestError(DataError):
    """Manifest is malformed or inconsistent with its matrices."""


def check_int(what: str, value, minimum: int) -> None:
    """Raise ``DataError`` unless ``value`` is an integer (not a bool) that is
    at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise DataError(f"{what} must be >= {minimum}, got {value}")


def check_real(what: str, value) -> None:
    """Raise ``DataError`` unless ``value`` is a finite number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise DataError(f"{what} must be finite, got {value!r}")
