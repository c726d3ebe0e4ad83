"""Probabilistic comparison of low- vs high-order Lagrange element accuracy.

The package has four layers:

* `femprob.laws` - closed-form probability laws over the crossover mesh
  size of two power-law error bounds.
* `femprob.oracle` - independent geometric, quadrature, and Monte Carlo
  re-derivations of those laws.
* `femprob.mesh` / `femprob.fem` / `femprob.study` / `femprob.problems` -
  a 1D finite-element laboratory producing real H1 errors on jittered
  meshes, constant fits, and observed superiority frequencies.
* `femprob.cli` - the `femprob` command emitting plot-ready CSV.

The package namespace holds the names of the README's Python API and the
error classes; every other public name is imported from its own module,
say `femprob.study.superiority_sweep` or `femprob.laws.crossover_h_star`.
"""

from .errors import (
    FemProbError,
    InsufficientDataError,
    ParameterError,
    UnsupportedProblemError,
)
from .laws import ElementPair, prob_sigmoid
from .mesh import build_mesh
from .oracle import mc_estimate, trapezium_ratio
from .fem import assemble_solve, h1_error
from .problems import Problem1D, get_problem
from .study import convergence_study, fit_constant

__version__ = "0.1.0"

__all__ = [
    "FemProbError",
    "ParameterError",
    "InsufficientDataError",
    "UnsupportedProblemError",
    "ElementPair",
    "prob_sigmoid",
    "trapezium_ratio",
    "mc_estimate",
    "Problem1D",
    "get_problem",
    "build_mesh",
    "assemble_solve",
    "h1_error",
    "convergence_study",
    "fit_constant",
    "__version__",
]
