"""Arbitrary-order 1D Lagrange finite elements for -u'' = f on (0, 1).

Galerkin assembly on an affine mesh with equispaced nodal basis functions of
degree k per element, Gauss-Legendre quadrature, and a symmetric banded
direct solve.  Degrees 1 through 10 are supported; the quadrature orders are
fixed so that integration error sits well below discretization error across
that range (k+3 points for assembly, exact for the stiffness integrands;
k+5 points for error norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, SingularSystemError
from .mesh import Mesh1D
from .problems import Problem1D

__all__ = ["FemSolution", "assemble_solve", "h1_error", "galerkin_residual"]

MAX_ORDER = 10

_ASSEMBLY_EXTRA_POINTS = 3  # ceil((2k+2)/2) + 2 == k + 3 Gauss points
_ERROR_EXTRA_POINTS = 5  # k + 5 Gauss points for the H1 error integrals


@dataclass(frozen=True)
class FemSolution:
    """Nodal coefficients of one Galerkin solve.

    Degrees of freedom are global Lagrange nodes in left-to-right order,
    k+1 per element with shared endpoints: element e owns indices
    e*k .. e*k + k.  Boundary coefficients are pinned at zero.
    """

    order: int
    mesh: Mesh1D
    coefficients: np.ndarray

    def __post_init__(self):
        expected = self.mesh.n_elements * self.order + 1
        if self.coefficients.shape != (expected,):
            raise ParameterError(
                f"expected {expected} coefficients for order {self.order} on "
                f"{self.mesh.n_elements} elements, got {self.coefficients.shape}"
            )
        if self.coefficients[0] != 0.0 or self.coefficients[-1] != 0.0:
            raise ParameterError("boundary coefficients must be zero")

    def node_coordinates(self) -> np.ndarray:
        """Global coordinates of the nodal degrees of freedom."""
        k = self.order
        local = np.arange(k) / k
        interior = self.mesh.nodes[:-1, None] + self.mesh.gaps[:, None] * local[None, :]
        return np.append(interior.ravel(), 1.0)


def _gauss_rule(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights mapped from [-1, 1] to [0, 1]."""
    points, weights = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (points + 1.0), 0.5 * weights


def _lagrange_tables(order: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the equispaced degree-k basis at `points`.

    Direct product evaluation of the Lagrange form; stable here because the
    evaluation points (Gauss points) never coincide with the nodes.
    """
    nodes = np.arange(order + 1) / order
    n_basis = order + 1
    values = np.ones((points.size, n_basis))
    derivs = np.zeros((points.size, n_basis))
    for j in range(n_basis):
        others = [l for l in range(n_basis) if l != j]
        denom = np.prod(nodes[j] - nodes[others])
        for i in others:
            rest = np.ones_like(points)
            for l in others:
                if l != i:
                    rest *= points - nodes[l]
            derivs[:, j] += rest
        for l in others:
            values[:, j] *= points - nodes[l]
        values[:, j] /= denom
        derivs[:, j] /= denom
    return values, derivs


@lru_cache(maxsize=None)
def _reference_element(order: int, extra_points: int):
    """Per-degree tabulation reused across every element and mesh."""
    points, weights = _gauss_rule(order + extra_points)
    values, derivs = _lagrange_tables(order, points)
    # reference stiffness: integral of phi_i' phi_j' over the unit element
    stiffness = derivs.T @ (weights[:, None] * derivs)
    return points, weights, values, derivs, stiffness


def _checked_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ParameterError(f"order must be an integer, got {order!r}")
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    return order


def assemble_solve(mesh: Mesh1D, order: int, problem: Problem1D) -> FemSolution:
    """Galerkin solution of -u'' = f with degree-`order` Lagrange elements.

    The global stiffness matrix has half-bandwidth `order` in nodal
    ordering; after eliminating the two Dirichlet rows it is symmetric
    positive definite and is factored with a banded Cholesky solve.
    """
    order = _checked_order(order)
    k = order
    points, weights, values, _, ref_stiffness = _reference_element(
        k, _ASSEMBLY_EXTRA_POINTS
    )
    lengths = mesh.gaps
    n_el = mesh.n_elements
    n_dof = n_el * k + 1

    # element loads: f integrated against each basis function
    x_quad = mesh.nodes[:-1, None] + lengths[:, None] * points[None, :]
    f_quad = np.asarray(problem.source(x_quad), dtype=np.float64)
    element_loads = lengths[:, None] * ((f_quad * weights) @ values)

    # every shared vertex receives exactly two contributions, so the sums
    # do not depend on the order of the strided adds below
    load = np.zeros(n_dof)
    load[:-1].reshape(n_el, k)[:] += element_loads[:, :k]
    load[k::k] += element_loads[:, k]

    # upper banded storage: band[k + i - j, j] = A[i, j] for j-k <= i <= j;
    # row view band[r, j::k] holds local column j of every element
    band = np.zeros((k + 1, n_dof))
    inv_lengths = 1.0 / lengths
    for j in range(k + 1):
        for i in range(j + 1):
            band[k + i - j, j::k][:n_el] += ref_stiffness[i, j] * inv_lengths

    if n_dof == 2:  # no interior unknowns: the zero boundary data is the answer
        return FemSolution(order=k, mesh=mesh, coefficients=np.zeros(n_dof))

    # homogeneous Dirichlet rows/columns 0 and n_dof-1 drop out; entries of
    # boundary row 0 still sit in the first k interior columns of the band
    for j in range(1, k + 1):
        band[k - j, j] = 0.0
    interior = _solve_interior(band[:, 1:-1], load[1:-1])

    coefficients = np.zeros(n_dof)
    coefficients[1:-1] = interior
    return FemSolution(order=k, mesh=mesh, coefficients=coefficients)


def _solve_interior(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the SPD interior system held in upper banded storage.

    Calls LAPACK exactly as ``scipy.linalg.solveh_banded(band, rhs)`` does:
    ``dptsv`` on the diagonals of a tridiagonal band, ``dpbsv`` otherwise.
    scipy is imported here, so commands that never solve never load it.
    """
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    k = band.shape[0] - 1
    if rhs.size == 1:  # single unknown; the tridiagonal path rejects 1x1
        return rhs / band[k, 0]
    if k == 1:
        from scipy.linalg.lapack import dptsv

        _, _, x, info = dptsv(band[1], band[0, 1:], rhs)
    else:
        from scipy.linalg.lapack import dpbsv

        _, x, info = dpbsv(band, rhs, lower=0)
    if info > 0:
        raise SingularSystemError(
            f"stiffness solve failed: {info}th leading minor not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK solve")
    return x


def _element_coefficients(solution: FemSolution) -> np.ndarray:
    """Coefficients reshaped to one row of k+1 nodal values per element."""
    k = solution.order
    n_el = solution.mesh.n_elements
    coefficients = solution.coefficients
    out = np.empty((n_el, k + 1))
    out[:, :k] = coefficients[:-1].reshape(n_el, k)
    out[:, k] = coefficients[k::k]
    return out


def h1_error(solution: FemSolution, problem: Problem1D) -> tuple[float, float]:
    """Full H1 norm and H1 seminorm of the discretization error.

    Both integrals use k+5 Gauss points per element, enough to keep the
    quadrature contribution orders of magnitude below the error itself
    for smooth solutions.
    """
    k = solution.order
    points, weights, values, derivs, _ = _reference_element(k, _ERROR_EXTRA_POINTS)
    mesh = solution.mesh
    lengths = mesh.gaps
    coeffs = _element_coefficients(solution)

    x_quad = mesh.nodes[:-1, None] + lengths[:, None] * points[None, :]
    uh = coeffs @ values.T
    duh = (coeffs @ derivs.T) / lengths[:, None]
    diff = uh - np.asarray(problem.exact_solution(x_quad), dtype=np.float64)
    ddiff = duh - np.asarray(problem.exact_derivative(x_quad), dtype=np.float64)

    l2_sq = float((lengths * ((diff * diff) @ weights)).sum())
    semi_sq = float((lengths * ((ddiff * ddiff) @ weights)).sum())
    return math.sqrt(l2_sq + semi_sq), math.sqrt(semi_sq)


def galerkin_residual(solution: FemSolution, problem: Problem1D) -> float:
    """Max residual of the discrete variational identity over interior DOFs.

    Recomputes load and stiffness action element by element (not through
    the banded factorization path) and returns
    max |l(phi_i) - a(u_h, phi_i)| / max |l(phi_i)|; a correct solve
    leaves only rounding.
    """
    k = solution.order
    points, weights, values, derivs, _ = _reference_element(k, _ASSEMBLY_EXTRA_POINTS)
    mesh = solution.mesh
    lengths = mesh.gaps
    coeffs = _element_coefficients(solution)

    x_quad = mesh.nodes[:-1, None] + lengths[:, None] * points[None, :]
    f_quad = np.asarray(problem.source(x_quad), dtype=np.float64)
    element_loads = lengths[:, None] * ((f_quad * weights) @ values)
    duh = coeffs @ derivs.T  # reference-coordinate derivative
    element_actions = ((duh * weights) @ derivs) / lengths[:, None]

    n_dof = mesh.n_elements * k + 1
    residual = np.zeros(n_dof)
    load = np.zeros(n_dof)
    base = np.arange(mesh.n_elements) * k
    for j in range(k + 1):
        np.add.at(residual, base + j, element_loads[:, j] - element_actions[:, j])
        np.add.at(load, base + j, element_loads[:, j])
    if n_dof == 2:
        return 0.0
    scale = float(np.abs(load[1:-1]).max())
    if scale == 0.0:
        scale = 1.0
    return float(np.abs(residual[1:-1]).max() / scale)
