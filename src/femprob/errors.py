"""Exception hierarchy shared by all femprob modules, and the checks that
raise `ParameterError` for an integer, a count, a number or a positive size,
for a sequence of them and for an array of floats.

`_checked_count` and `_checked_positive` are the one rule for every count
(element orders, element counts, trial counts, grid sizes, seminorm orders,
draw counts and offsets) and every positive size (mesh size h, error
constants) the library takes; `_checked_integer` is the rule for any other
integer (a seed, a stream key, a key-path element) and `_checked_number` for
any other number (a jitter).  `_checked_increasing` applies one of them to
every entry of a sweep (element counts, a grid of mesh sizes), and
`_checked_floats` is the rule for an array of numbers (mesh nodes, the
points of a probability curve).
"""

import math
import operator

import numpy as np


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


def _checked_integer(value, name: str) -> int:
    """`value` as an int; floats, strings and bools are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def _checked_count(value, name: str, minimum: int = 1) -> int:
    """`value` as an int of at least `minimum`, by the rule of `_checked_integer`."""
    value = _checked_integer(value, name)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _checked_number(value, name: str) -> float:
    """`value` as a float; bools, text and what `float()` refuses are refused."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


def _checked_positive(value, name: str) -> float:
    """`value` as a float that is finite and > 0."""
    number = _checked_number(value, name)
    if not math.isfinite(number) or number <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {number!r}")
    return number


def _checked_increasing(values, name: str, rule) -> list:
    """The entries of the iterable `values`, each checked by the scalar `rule`
    (such as `_checked_count`) as ``name[i]``; there must be at least one, and
    they must be strictly increasing."""
    try:
        entries = iter(values)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence, got {_described(values)}") from None
    checked = [rule(value, f"{name}[{i}]") for i, value in enumerate(entries)]
    if not checked or any(b <= a for a, b in zip(checked, checked[1:])):
        raise ParameterError(f"{name} must be non-empty and strictly increasing, got {checked}")
    return checked


def _checked_floats(values, name: str, ndim: int) -> np.ndarray:
    """`values` as a float64 array of `ndim` dimensions; what numpy cannot
    convert (a string, a ragged list) or an array of another rank is refused."""
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != ndim:
        raise ParameterError(f"{name} must be a {ndim}-D array of numbers,"
                             f" got {_described(values if array is None else array)}")
    return array


def _described(value) -> str:
    """A value that should have been an array, for an error message: its
    shape if it is a numpy array, else the name of its type."""
    return f"shape {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
