"""Arbitrary-order 1D finite elements for -u'' = f on (0, 1).

Galerkin solve in the hierarchical integrated-Legendre (Lobatto) basis: per
element the two vertex hats plus bubbles of degree 2..k, with Gauss-Legendre
quadrature.  The bubbles are stiffness-orthogonal to the hats and to each
other, so the global system is the P1 second difference plus a diagonal;
two running sums solve the first and a scaling the second (Szabo & Babuska,
*Finite Element Analysis*, 1991, ch. 3).  Degrees 1 through 10 are
supported; the quadrature orders are fixed so that integration error sits
well below discretization error across that range (k+3 points for the
loads; k+5 points for error norms).

`assemble_solve` and `h1_error` walk the mesh in blocks of whole elements,
about `_BLOCK_POINTS` quadrature points each, so every per-point array stays
in L2 cache.  A block yields per-element results only (loads, weighted
squared errors); the global reductions (the solve's running sums, the sums
of the error integrals over elements) run once over all elements
afterwards.  Each element's result comes from the same operations in any
block, so every output is bit-identical for any block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .mesh import Mesh1D
from .problems import Problem1D

__all__ = ["FemSolution", "assemble_solve", "h1_error", "galerkin_residual"]

MAX_ORDER = 10

_ASSEMBLY_EXTRA_POINTS = 3  # ceil((2k+2)/2) + 2 == k + 3 Gauss points
_ERROR_EXTRA_POINTS = 5  # k + 5 Gauss points for the H1 error integrals

# quadrature points per element block: 2**15 float64 values are 256 KiB per
# array, so every pass over a block stays in L2 (2**13..2**17 measured)
_BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class FemSolution:
    """One Galerkin solve in the Lobatto basis.

    ``slopes[e]`` is the slope of u_h's vertex interpolant on element e
    (the mean of u_h' there); ``bubbles[e, j - 2]`` is the coefficient of
    bubble j.  Vertex values follow from u(0) = 0 as a running sum of
    slope times element length.
    """

    order: int
    mesh: Mesh1D
    slopes: np.ndarray
    bubbles: np.ndarray

    def __post_init__(self):
        n_el = self.mesh.n_elements
        if self.slopes.shape != (n_el,) or self.bubbles.shape != (n_el, self.order - 1):
            raise ParameterError(
                f"expected {n_el} slopes and {n_el}x{self.order - 1} bubble"
                f" coefficients for order {self.order}, got {self.slopes.shape}"
                f" and {self.bubbles.shape}"
            )

    def element_values(self) -> np.ndarray:
        """Per element, the Lobatto coefficients of u_h: both vertex values, then bubbles."""
        out = np.empty((self.mesh.n_elements, self.order + 1))
        (self.slopes * self.mesh.gaps).cumsum(out=out[:, 1])
        out[0, 0] = 0.0
        out[1:, 0] = out[:-1, 1]
        out[:, 2:] = self.bubbles
        return out

    def element_slopes(self) -> np.ndarray:
        """Per element, the coefficients of u_h' against 1 and the bubble derivatives."""
        out = np.empty((self.mesh.n_elements, self.order))
        out[:, 0] = self.slopes
        np.divide(self.bubbles, self.mesh.gaps[:, None], out=out[:, 1:])
        return out

    @property
    def coefficients(self) -> np.ndarray:
        """u_h at the equispaced degree-k Lagrange nodes, boundaries zero.

        Element e owns indices e*k .. e*k + k, shared endpoints included;
        derived on each access, not stored.
        """
        local_values, _ = _lobatto_tables(self.order, np.arange(self.order) / self.order)
        nodal = self.element_values() @ local_values.T
        return np.append(nodal.ravel(), 0.0)

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


def _lobatto_tables(order: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the degree-k Lobatto basis at `points`.

    Columns are the hats 1 - t and t, then bubbles j = 2..k with derivative
    sqrt(2j-1) P_{j-1}(2t-1) and value (P_j - P_{j-2})(2t-1) / (2 sqrt(2j-1)).
    Each bubble vanishes at both ends and has unit stiffness on [0, 1].
    """
    legendre = np.polynomial.legendre.legvander(2.0 * points - 1.0, order)
    scale = np.sqrt(2.0 * np.arange(2, order + 1) - 1.0)
    values = np.empty((points.size, order + 1))
    derivs = np.empty((points.size, order + 1))
    values[:, 0], values[:, 1] = 1.0 - points, points
    derivs[:, 0], derivs[:, 1] = -1.0, 1.0
    values[:, 2:] = (legendre[:, 2:] - legendre[:, :-2]) / (2.0 * scale)
    derivs[:, 2:] = scale * legendre[:, 1:-1]
    return values, derivs


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
def _reference_element(order: int, extra_points: int, tables=_lobatto_tables):
    """Per-degree tabulation reused across every element and mesh."""
    points, weights = _gauss_rule(order + extra_points)
    values, derivs = tables(order, points)
    return points, weights, values, derivs


@lru_cache(maxsize=None)
def _point_map(order: int, extra_points: int) -> np.ndarray:
    """Rows t and 1: (h, left) @ this gives an element's points left + h * t.

    The product rounds h * t, then adds left * 1, so each point is rounded
    exactly as the elementwise form; it runs ~5x faster than broadcasting
    over the few points of each element.
    """
    points = _reference_element(order, extra_points)[0]
    point_map = np.stack((points, np.ones_like(points)))
    point_map.flags.writeable = False
    return point_map


def _element_blocks(mesh: Mesh1D, order: int, extra_points: int):
    """Yield (elements, x_quad) per block of about `_BLOCK_POINTS` points.

    `elements` is the slice of element indices in the block and `x_quad`
    their quadrature points under the (order, extra_points) rule, one row
    per element.
    """
    point_map = _point_map(order, extra_points)
    edges = np.empty((mesh.n_elements, 2))
    edges[:, 0] = mesh.gaps
    edges[:, 1] = mesh.nodes[:-1]
    step = _BLOCK_POINTS // point_map.shape[1]  # >= 2184 elements at k + 5 <= 15 points
    for start in range(0, mesh.n_elements, step):
        block = slice(start, start + step)
        yield block, edges[block] @ point_map


def _checked_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ParameterError(f"order must be an integer, got {order!r}")
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    return order


def assemble_solve(mesh: Mesh1D, order: int, problem: Problem1D) -> FemSolution:
    """Galerkin solution of -u'' = f with degree-`order` elements.

    The hat equation at vertex v reads s_{v-1} - s_v = l(hat_v) for the
    element slopes s, so the slopes are a constant minus the running sum of
    the vertex loads; u(1) = 0, i.e. sum_e h_e s_e = 0, fixes the constant.
    Bubble j of element e decouples: b_ej / h_e = l(phi_ej).
    """
    k = _checked_order(order)
    _, weights, values, _ = _reference_element(k, _ASSEMBLY_EXTRA_POINTS)
    lengths = mesh.gaps

    loads = np.empty((mesh.n_elements, k + 1))
    for block, x_quad in _element_blocks(mesh, k, _ASSEMBLY_EXTRA_POINTS):
        f_quad = np.asarray(problem.source(x_quad), dtype=np.float64)
        if not np.isfinite(f_quad).all():
            raise ValueError("source values must not contain infs or NaNs")
        loads[block] = lengths[block, None] * ((f_quad * weights) @ values)

    vertex_loads = np.zeros(mesh.n_elements)
    np.add(loads[:-1, 1], loads[1:, 0], out=vertex_loads[1:])
    passed = vertex_loads.cumsum()
    slopes = (lengths @ passed) / lengths.sum() - passed
    bubbles = lengths[:, None] * loads[:, 2:]
    return FemSolution(order=k, mesh=mesh, slopes=slopes, bubbles=bubbles)


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
    for smooth solutions.  u_h' is taken from the slopes, not from vertex
    value differences, which would add a rounding floor on fine meshes.

    The squared errors are integrated per element, block by block; the
    sums over elements run once over all of them, so the result does not
    depend on the block size.
    """
    k = solution.order
    _, weights, values, derivs = _reference_element(k, _ERROR_EXTRA_POINTS)
    mesh = solution.mesh
    lengths = mesh.gaps
    coefficients = solution.element_values()
    slope_coefficients = solution.element_slopes()

    l2_elements = np.empty(mesh.n_elements)
    semi_elements = np.empty(mesh.n_elements)
    for block, x_quad in _element_blocks(mesh, k, _ERROR_EXTRA_POINTS):
        diff = coefficients[block] @ values.T  # u_h, then u_h - u, then its square
        ddiff = slope_coefficients[block] @ derivs[:, 1:].T  # d/dt of the hat t is 1
        diff -= np.asarray(problem.exact_solution(x_quad), dtype=np.float64)
        ddiff -= np.asarray(problem.exact_derivative(x_quad), dtype=np.float64)
        diff *= diff
        ddiff *= ddiff
        l2_elements[block] = diff @ weights
        semi_elements[block] = ddiff @ weights

    l2_sq = float((lengths * l2_elements).sum())
    semi_sq = float((lengths * semi_elements).sum())
    return math.sqrt(l2_sq + semi_sq), math.sqrt(semi_sq)


def galerkin_residual(solution: FemSolution, problem: Problem1D) -> float:
    """Max residual of the discrete variational identity over interior DOFs.

    Recomputes load and stiffness action element by element in the nodal
    Lagrange basis (not through the Lobatto solve) from the nodal
    `coefficients`, and returns max |l(phi_i) - a(u_h, phi_i)| / max |l(phi_i)|;
    a correct solve leaves only rounding.
    """
    k = solution.order
    points, weights, values, derivs = _reference_element(
        k, _ASSEMBLY_EXTRA_POINTS, _lagrange_tables
    )
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
    scale = float(np.abs(load[1:-1]).max(initial=0.0)) or 1.0
    return float(np.abs(residual[1:-1]).max(initial=0.0) / scale)
