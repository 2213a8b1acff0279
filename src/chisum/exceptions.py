"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError (and subclasses) -> 2,
SeriesFormatError -> 3, NumericError (and subclasses) -> 4.
"""

from operator import index


class DomainError(ValueError):
    """An argument lies outside an operation's stated domain."""


class UnknownSeriesError(DomainError):
    """Catalog lookup with a name that is not in the catalog."""


class SeriesFormatError(ValueError):
    """A custom-series document could not be parsed or is malformed."""


class NumericError(ArithmeticError):
    """A computation failed numerically (non-finite term, no convergence)."""


class AbelRadiusError(NumericError):
    """The inner power series of an Abel evaluation never reached its tail
    threshold at the requested radius."""


def _order(n, least: int = 1, name: str = "n") -> int:
    """The integer n >= least as a Python int (numpy integers pass);
    anything else raises DomainError."""
    try:
        n = index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise DomainError(f"need {name} >= {least}, got {n}")
    return n
