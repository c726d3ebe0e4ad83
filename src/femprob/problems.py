"""Manufactured 1D Poisson problems with homogeneous Dirichlet conditions.

Each problem packages an exact solution u on [0, 1] with u(0) = u(1) = 0,
its derivative, and the source f = -u'' that reproduces it, so that
discretization errors are computable exactly.  Library problems also
register closed-form Sobolev seminorms of u, used to document fitted
error constants.

Callables must accept numpy arrays and act pointwise (all library problems
do; see `Problem1D`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ParameterError, UnsupportedProblemError, _checked_count

__all__ = ["Problem1D", "get_problem", "available_problems", "seminorm_reference"]

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Problem1D:
    """An exact solution / source pair for -u'' = f, u(0) = u(1) = 0.

    `seminorm_fn`, when provided, maps an integer s >= 1 to the analytic
    H^s seminorm of u (the L2 norm of the s-th derivative).  Problems
    without it are still solvable; they just cannot document constants.

    The three functions must be pointwise: `assemble_solve` and
    `h1_errors` call them once per block of `fem`'s one block walker
    (about 2**15 quadrature points), not once per mesh, and a block may
    hold part of one mesh or the points of several meshes.  A result that
    depends on the other points of its array (a normalisation, a running
    sum) changes with the blocking.  A call of several blocks may call a
    function from two threads at once, on disjoint blocks, so it must not
    change state that another call reads.
    """

    name: str
    exact_solution: Callable[[np.ndarray], np.ndarray]
    exact_derivative: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray], np.ndarray]
    seminorm_fn: Callable[[int], float] | None = None

    def __post_init__(self):
        for endpoint in (0.0, 1.0):
            value = float(self.exact_solution(np.asarray(endpoint)))
            if not abs(value) <= _BOUNDARY_TOL:
                raise ParameterError(
                    f"problem {self.name!r}: exact_solution({endpoint}) = {value!r}"
                    " violates the homogeneous Dirichlet condition"
                )


def seminorm_reference(problem: Problem1D, s: int) -> float:
    """Analytic H^s seminorm of the exact solution, for library problems."""
    s = _checked_count(s, "seminorm order s")
    if problem.seminorm_fn is None:
        raise UnsupportedProblemError(
            f"problem {problem.name!r} has no registered closed-form seminorms"
        )
    return problem.seminorm_fn(s)


def _make_sine(frequency: int) -> Problem1D:
    """u = sin(q*pi*x): infinitely smooth, |u|_s = (q*pi)**s / sqrt(2)."""
    q_pi = frequency * math.pi

    def seminorm(s: int) -> float:
        # every derivative is +-(q*pi)**s times a sine or cosine of q*pi*x,
        # whose squared integral over [0, 1] is 1/2 for integer q
        try:
            return q_pi**s / math.sqrt(2.0)
        except OverflowError:
            raise ParameterError(
                f"seminorm order s = {s} overflows (q*pi)**s for q = {frequency}"
            ) from None

    return Problem1D(
        name="sine" if frequency == 1 else f"sine{frequency}",
        exact_solution=lambda x: np.sin(q_pi * x),
        exact_derivative=lambda x: q_pi * np.cos(q_pi * x),
        source=lambda x: q_pi**2 * np.sin(q_pi * x),
        seminorm_fn=seminorm,
    )


def _make_poly(alpha: int) -> Problem1D:
    """u = x**alpha * (1 - x): a degree alpha+1 polynomial, alpha >= 1."""
    u = Polynomial([0.0, 1.0]) ** alpha * Polynomial([1.0, -1.0])
    du = u.deriv()
    f = -u.deriv(2)

    def seminorm(s: int) -> float:
        d = u.deriv(s) if s <= u.degree() else Polynomial([0.0])
        square_integral = (d * d).integ()
        return math.sqrt(square_integral(1.0) - square_integral(0.0))

    return Problem1D(
        name=f"poly{alpha + 1}",
        exact_solution=u,
        exact_derivative=du,
        source=f,
        seminorm_fn=seminorm,
    )


_FIXED = {p.name: p for p in [_make_sine(1), _make_poly(1), _make_poly(2), _make_poly(3)]}
_SINE_PATTERN = re.compile(r"^sine(\d+)$")


def available_problems() -> tuple[str, ...]:
    """The fixed names `get_problem` accepts; it also accepts some sineN (see there)."""
    return tuple(_FIXED)


def get_problem(name: str) -> Problem1D:
    """Look up a library problem by name.

    `sine` and `sineN` give u = sin(N*pi*x); `poly2`..`poly4` give
    u = x**(a)*(1-x) for a = 1..3.  An unknown name, or a sineN with
    N >= 10**307, is an `UnsupportedProblemError`.  A smaller N whose
    sin(N*pi) does not round to within 1e-12 of 0 (every N from 1 to 2617
    does, most larger N do not), or a name that is not a string, is a
    `ParameterError`.
    """
    if not isinstance(name, str):
        raise ParameterError(f"problem name must be a string, got {name!r}")
    if name in _FIXED:
        return _FIXED[name]
    match = _SINE_PATTERN.match(name)
    digits = match.group(1).lstrip("0") if match else ""
    # N < 10**307 keeps N*pi a finite float (and int() within its digit limit)
    if 0 < len(digits) <= 307:
        return _make_sine(int(digits))
    raise UnsupportedProblemError(
        f"unknown problem {name!r}; available: {', '.join(available_problems())}"
        " and sineN for an integer N from 1 to 2617, or a larger N below 10**307"
        f" whose sin(N*pi) rounds to within {_BOUNDARY_TOL:g} of 0"
    )
