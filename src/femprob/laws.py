"""Closed-form probability laws comparing two Lagrange element families.

A family of order k carries an error bound ``C_k * h**k`` on the H1 error of
its Galerkin solution at mesh size h.  For two families with orders k < m the
bound curves intersect at the crossover mesh size

    h_star = (C_k / C_m) ** (1 / (m - k)),

below which the high-order bound is the smaller one.  Modeling the two actual
errors as independent uniform draws on [0, C_i * h**i] yields a smooth law for
the probability that the high-order family is at least as accurate:

    p(h) = 1 - (h / h_star)**(m-k) / 2   for h <= h_star,
    p(h) =     (h_star / h)**(m-k) / 2   for h >= h_star,

a sigmoid in log h that equals 1/2 at the crossover.  Assuming instead that
"high-order wins" is independent of "the low-order error lands between the
two bounds" collapses the law to a two-step indicator (1 below h_star,
0 above).  Both laws are implemented here as pure functions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import ParameterError

__all__ = [
    "ErrorLaw",
    "ElementPair",
    "crossover_h_star",
    "prob_two_step",
    "prob_sigmoid",
    "prob_sigmoid_complement",
    "tabulate_curve",
]


def _checked_order(order) -> int:
    """An element order: an integer >= 1, not a bool."""
    try:
        if isinstance(order, bool):
            raise TypeError
        order = operator.index(order)
    except TypeError:
        raise ParameterError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    return order


def _checked_constant(constant) -> float:
    constant = float(constant)
    if not math.isfinite(constant) or constant <= 0.0:
        raise ParameterError(f"constant must be positive and finite, got {constant!r}")
    return constant


def _checked_h(h) -> float:
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ParameterError(f"mesh size h must be positive and finite, got {h!r}")
    return h


@dataclass(frozen=True)
class ErrorLaw:
    """One family's error bound ``constant * h**order``.

    `order` is the polynomial degree of the Lagrange family; `constant`
    lumps the interpolation constant and the exact-solution seminorm into
    a single positive number (units error / length**order).
    """

    order: int
    constant: float

    def __post_init__(self):
        object.__setattr__(self, "order", _checked_order(self.order))
        object.__setattr__(self, "constant", _checked_constant(self.constant))

    def bound(self, h: float) -> float:
        """Value of the bound curve at mesh size h; it must be finite."""
        h = _checked_h(h)
        try:
            value = self.constant * h**self.order
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise ParameterError(
                f"bound {self.constant!r} * h**{self.order} overflows at h = {h!r}"
            )
        return value


def crossover_h_star(low: ErrorLaw, high: ErrorLaw) -> float:
    """Mesh size where the two bound curves intersect.

    Computed in log space, ``exp((ln C_low - ln C_high) / (m - k))``, so that
    constant ratios spanning many orders of magnitude stay representable;
    a ratio whose crossover overflows, or underflows to zero, is rejected.
    """
    if low.order >= high.order:
        raise ParameterError(
            f"low.order must be < high.order, got {low.order} >= {high.order}"
        )
    try:
        h_star = math.exp(
            (math.log(low.constant) - math.log(high.constant)) / (high.order - low.order)
        )
    except OverflowError:
        h_star = math.inf
    if not 0.0 < h_star < math.inf:
        raise ParameterError(
            f"crossover h* of constants {low.constant!r} and {high.constant!r}"
            " is not a positive finite float"
        )
    return h_star


@dataclass(frozen=True)
class ElementPair:
    """An ordered pair of error laws (low.order < high.order) with cached crossover."""

    low: ErrorLaw
    high: ErrorLaw
    h_star: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h_star", crossover_h_star(self.low, self.high))

    @classmethod
    def from_constants(
        cls, c_low: float, order_low: int, c_high: float, order_high: int
    ) -> "ElementPair":
        return cls(ErrorLaw(order_low, c_low), ErrorLaw(order_high, c_high))

    @property
    def order_gap(self) -> int:
        """Exponent m - k governing both branches of the sigmoid law."""
        return self.high.order - self.low.order


def prob_two_step(pair: ElementPair, h: float) -> float:
    """Indicator law under the independence assumption: 1 below the crossover,
    0 above, and 1/2 at ``h == h_star`` (continuity convention shared with
    the sigmoid law; the indicator alone leaves that point undefined)."""
    h = _checked_h(h)
    if h < pair.h_star:
        return 1.0
    if h > pair.h_star:
        return 0.0
    return 0.5


def prob_sigmoid(pair: ElementPair, h: float) -> float:
    """Probability that the high-order family is at least as accurate at h.

    Uniform-error model; both branches meet at the value 1/2 when h equals
    the crossover.  The result is clamped to [0, 1] to protect consumers
    from floating-point spill.
    """
    h = _checked_h(h)
    t = h / pair.h_star
    if t <= 1.0:
        p = 1.0 - 0.5 * t**pair.order_gap
    else:
        p = 0.5 * (1.0 / t) ** pair.order_gap
    return min(1.0, max(0.0, p))


def prob_sigmoid_complement(pair: ElementPair, h: float) -> float:
    """Probability that the low-order family is strictly more accurate at h.

    Equal to ``1 - prob_sigmoid(pair, h)`` but evaluated directly, without
    the cancellation that makes the subtracted form lose all precision for
    h far below the crossover (where the complement is ~(h/h_star)**gap/2,
    far beneath float64 resolution of 1).
    """
    h = _checked_h(h)
    t = h / pair.h_star
    if t <= 1.0:
        p = 0.5 * t**pair.order_gap
    else:
        p = 1.0 - 0.5 * (1.0 / t) ** pair.order_gap
    return min(1.0, max(0.0, p))


def tabulate_curve(pair: ElementPair, h_grid, law) -> tuple[float, ...]:
    """`law(pair, h)` for each h of `h_grid` (non-empty, strictly increasing, positive).

    `law` is `prob_two_step` or `prob_sigmoid`.
    """
    grid = [_checked_h(h) for h in h_grid]
    if not grid:
        raise ParameterError("h_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("h_grid must be strictly increasing")
    return tuple(law(pair, h) for h in grid)
