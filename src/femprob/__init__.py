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
"""

from .errors import (
    FemProbError,
    InsufficientDataError,
    ParameterError,
    UnsupportedProblemError,
)
from .laws import (
    ElementPair,
    ErrorLaw,
    LawKind,
    ProbabilityCurve,
    crossover_h_star,
    prob_sigmoid,
    prob_sigmoid_complement,
    prob_two_step,
    tabulate_curve,
)
from .mesh import Mesh1D, build_mesh
from .oracle import (
    ConditionalIdentityReport,
    McEstimate,
    UniformErrorSample,
    draw_error_samples,
    draw_sample,
    conditional_identity_check,
    mc_estimate,
    numeric_area_oracle,
    trapezium_ratio,
)
from .fem import FemSolution, assemble_solve, galerkin_residual, h1_error
from .problems import Problem1D, available_problems, get_problem, seminorm_reference
from .study import (
    ConvergenceRecord,
    FittedLaw,
    SweepPoint,
    convergence_study,
    empirical_superiority,
    estimate_half_crossing,
    fit_constant,
    records_to_csv,
    superiority_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "FemProbError",
    "ParameterError",
    "InsufficientDataError",
    "UnsupportedProblemError",
    "ErrorLaw",
    "ElementPair",
    "ProbabilityCurve",
    "LawKind",
    "crossover_h_star",
    "prob_two_step",
    "prob_sigmoid",
    "prob_sigmoid_complement",
    "tabulate_curve",
    "UniformErrorSample",
    "McEstimate",
    "ConditionalIdentityReport",
    "draw_sample",
    "draw_error_samples",
    "trapezium_ratio",
    "mc_estimate",
    "conditional_identity_check",
    "numeric_area_oracle",
    "Mesh1D",
    "build_mesh",
    "FemSolution",
    "assemble_solve",
    "h1_error",
    "galerkin_residual",
    "Problem1D",
    "get_problem",
    "available_problems",
    "seminorm_reference",
    "ConvergenceRecord",
    "FittedLaw",
    "SweepPoint",
    "convergence_study",
    "fit_constant",
    "empirical_superiority",
    "superiority_sweep",
    "estimate_half_crossing",
    "records_to_csv",
    "__version__",
]
