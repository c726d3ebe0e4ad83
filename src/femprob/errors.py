"""Exception hierarchy shared by all femprob modules, and the checks that
raise `ParameterError` for a count, a number or a positive size.

`_checked_count` and `_checked_positive` are the one rule for every count
(element orders, element counts, trial counts, grid sizes, seminorm orders)
and every positive size (mesh size h, error constants) the library takes;
`_checked_number` is the rule for any other number (a jitter).
"""

import math
import operator


class FemProbError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FemProbError, ValueError):
    """An input violates a documented precondition (domain, type, range)."""


class InsufficientDataError(FemProbError):
    """Not enough data to produce a meaningful estimate or fit."""


class UnsupportedProblemError(FemProbError, KeyError):
    """Unknown problem name, or a closed-form quantity is not registered."""

    # KeyError's str() is the repr of its key; this error carries a message
    __str__ = Exception.__str__


def _checked_count(value, name: str, minimum: int = 1) -> int:
    """`value` as an int of at least `minimum`; floats, strings and bools are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _checked_number(value, name: str) -> float:
    """`value` as a float; what `float()` refuses is refused."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


def _checked_positive(value, name: str) -> float:
    """`value` as a float that is finite and > 0."""
    number = _checked_number(value, name)
    if not math.isfinite(number) or number <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {number!r}")
    return number
