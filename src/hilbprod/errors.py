"""Error taxonomy shared across the package.

``UsageError`` marks a malformed request (bad arguments, mismatched contexts);
the CLI maps it to exit code 1.  ``DataError`` marks bad or missing data
(unknown catalog entry, failed validation, absent Hodge numbers); the CLI maps
it to exit code 2.
"""

from __future__ import annotations

__all__ = ["UsageError", "DataError", "CatalogError", "DimensionMismatchError"]


class UsageError(ValueError):
    """The request itself is malformed."""


class DataError(ValueError):
    """The data backing the request is missing, unknown or inconsistent."""


class CatalogError(DataError):
    """Unknown catalog entry or invalid family parameters."""


class DimensionMismatchError(UsageError):
    """Partitions of different integers: the products differ in dimension."""



def require_plain_ints(**arguments: object) -> None:
    """Refuse a float or bool argument: ``3.0 == 3`` and ``True == 1`` hash alike."""
    for name, value in arguments.items():
        if type(value) is not int:
            raise UsageError(f"{name} must be a plain int, got {value!r}")
