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
Only the error classes are imported with the package.  Each API name
resolves on first access (PEP 562), by importing the module of `_LAZY`
that defines it, so `import femprob.cli` loads no module that the command
it runs does not need.
"""

from importlib import import_module

from .errors import (
    FemProbError,
    InsufficientDataError,
    ParameterError,
    UnsupportedProblemError,
)

__version__ = "0.1.0"

# each API name -> the module that defines it
_LAZY = {
    "ElementPair": "laws",
    "prob_sigmoid": "laws",
    "trapezium_ratio": "oracle",
    "mc_estimate": "oracle",
    "Problem1D": "problems",
    "get_problem": "problems",
    "build_mesh": "mesh",
    "assemble_solve": "fem",
    "h1_error": "fem",
    "convergence_study": "study",
    "fit_constant": "study",
}

__all__ = [
    "FemProbError",
    "ParameterError",
    "InsufficientDataError",
    "UnsupportedProblemError",
    *_LAZY,
    "__version__",
]


def __getattr__(name: str):
    """An API name of `_LAZY`, from its module; it is not stored here, so
    the package never holds a stale copy of the module's name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
