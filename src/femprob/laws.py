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
from dataclasses import dataclass, field

from .errors import ParameterError, _checked_count, _checked_increasing, _checked_positive

__all__ = [
    "ErrorLaw",
    "ElementPair",
    "crossover_h_star",
    "prob_two_step",
    "prob_sigmoid",
    "prob_sigmoid_complement",
    "tabulate_curve",
]


def _checked_h(h) -> float:
    return _checked_positive(h, "mesh size h")


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
        object.__setattr__(self, "order", _checked_count(self.order, "order"))
        object.__setattr__(self, "constant", _checked_positive(self.constant, "constant"))

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


def _tail(pair: ElementPair, h: float) -> tuple[bool, float]:
    """Whether h lies at or below the crossover, and the tail mass of both laws.

    With t = h / h_star the tail is ``min(t, 1/t)**(m-k) / 2``, which lies in
    [0, 1/2] even when t overflows to inf or underflows to 0; each law is
    the tail on one side of the crossover and one minus it on the other.
    """
    t = _checked_h(h) / pair.h_star
    below = t <= 1.0
    return below, 0.5 * (t if below else 1.0 / t) ** pair.order_gap


def prob_sigmoid(pair: ElementPair, h: float) -> float:
    """Probability that the high-order family is at least as accurate at h.

    Uniform-error model; both branches meet at the value 1/2 when h equals
    the crossover.
    """
    below, tail = _tail(pair, h)
    return 1.0 - tail if below else tail


def prob_sigmoid_complement(pair: ElementPair, h: float) -> float:
    """Probability that the low-order family is strictly more accurate at h.

    Equal to ``1 - prob_sigmoid(pair, h)`` but evaluated directly, without
    the cancellation that makes the subtracted form lose all precision for
    h far below the crossover (where the complement is ~(h/h_star)**gap/2,
    far beneath float64 resolution of 1).
    """
    below, tail = _tail(pair, h)
    return tail if below else 1.0 - tail


def tabulate_curve(pair: ElementPair, h_grid, law) -> tuple[float, ...]:
    """`law(pair, h)` for each h of `h_grid` (non-empty, strictly increasing, positive).

    `law` is `prob_two_step` or `prob_sigmoid`.
    """
    grid = _checked_increasing(h_grid, "h_grid", _checked_positive)
    return tuple(law(pair, h) for h in grid)
