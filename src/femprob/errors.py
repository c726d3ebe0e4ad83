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

`_checked_real` is the one dtype rule, the only code of the package that
reads a numpy dtype kind: real numbers are kinds ``i``, ``u`` and ``f``
(signed and unsigned integers, floats), integers only ``i`` and ``u``, and
bools, complex numbers, text and objects are neither.  Every numpy input
passes it: a numpy scalar or 0-d array given as a number, the arrays of
`_checked_floats`, the node rows, slopes and bubbles of `fem.h1_errors`,
the values of a problem's callables, the errors `study.fit_constant` fits
and the integer arrays of `rng`.

A count is at most `MAX_COUNT`, 2**53, the largest integer up to which
float64 holds every integer exactly: trial, element and grid counts enter
float arithmetic (``wins / trials``, ``1 / n_elements``).  Only the draw
counts, offsets and indices of `rng`, which stay integers, go beyond it.
An element order is at most `MAX_ORDER`, the highest degree `fem`
supports; it lives here so that the command line can check an order flag
without importing the solver.
"""

import math
import operator

import numpy as np

MAX_COUNT = 2**53  # the largest count, see above
MAX_ORDER = 10  # the highest element order of `fem`, see above


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


def _checked_count(value, name: str, minimum: int = 1, maximum: float = MAX_COUNT) -> int:
    """`value` as an int in [`minimum`, `maximum`], by the rule of `_checked_integer`."""
    value = _checked_integer(value, name)
    if not minimum <= value <= maximum:
        raise ParameterError(f"{name} must lie in [{minimum}, {maximum}], got {value}")
    return value


def _checked_real(values, name: str, integer: bool = False):
    """`values`, a numpy array or scalar, if its dtype holds real numbers
    (kinds i, u and f) or, with `integer`, integers (kinds i and u); any
    other dtype is a `ParameterError` naming `name`."""
    if values.dtype.kind not in ("iu" if integer else "iuf"):
        raise ParameterError(f"{name} must be {'integers' if integer else 'real numbers'},"
                             f" got dtype {values.dtype}")
    return values


def _checked_number(value, name: str) -> float:
    """`value` as a float: a numpy scalar or 0-d array by `_checked_real`, or
    what `float()` takes but a bool or text."""
    if isinstance(value, (np.generic, np.ndarray)):
        _checked_real(value, name)
    try:
        if isinstance(value, (bool, str, bytes)):
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
    """`values` as a float64 array of `ndim` dimensions; a ragged list, an
    array of another rank or one that fails `_checked_real` is refused."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows
        array = None
    if array is None or array.ndim != ndim:
        raise ParameterError(f"{name} must be a {ndim}-D array of numbers,"
                             f" got {_described(values if array is None else array)}")
    return _checked_real(array, name).astype(np.float64, copy=False)


def _described(value) -> str:
    """A value that should have been an array, for an error message: its
    shape if it is a numpy array, else the name of its type."""
    return f"shape {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
