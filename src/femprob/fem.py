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

`assemble_solve` and `h1_errors` walk their quadrature points with the
package's one tiling rule, `rng._blocks`, at this module's `_BLOCK`: a
block holds about `_BLOCK` quadrature points, so every per-point array
stays in L2 cache, and is as many whole meshes as fit or else whole
elements of one mesh.  `assemble_solve` walks one mesh, its loads block
by block through one body, `_block_loads`; a mesh whose load points fit
in one block (every mesh of n <= 96 elements) is solved in one pass, that
body called once on the whole mesh, with no walker.  `h1_errors`
integrates the errors of many solves of one order, given as arrays with
one row per mesh, and `h1_error` is its one-mesh call.  A block yields
per-element results only (loads, weighted squared errors); the global
reductions (the solve's running sums, the sums of the error integrals over
elements) run once per mesh over all its elements afterwards.  A call of
more than one block splits its blocks between the calling thread and one
helper thread (`_each_block`), each running its half by `_half`, the
package's one split rule, which the CLI's forked worker shares
(`cli._each_point`).  Each block writes only its own elements' results, so
the results do not depend on the split, nor on whether a helper runs at
all (a process on one CPU has none).  Reruns at one block
size are byte-identical, and a mesh's results do not depend on
which other meshes share its block.  Another block size may move the last
bits: a block of one element takes numpy's one-row path through the
products, whose rounding can differ from the many-row path, and blocks of
two or three elements can differ too.

`galerkin_residual` checks a solve against the variational identity in the
same Lobatto basis: the loads through the solve's own quadrature, the
stiffness action by quadrature of u_h' against the basis derivatives, so it
reads the rounding of the solve and not that of another basis.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MAX_ORDER, ParameterError, _checked_count, _checked_real, _described
from .mesh import Mesh1D, _checked_gaps
from .problems import Problem1D
from .rng import _blocks, _rows_per_block

__all__ = ["FemSolution", "assemble_solve", "h1_error", "h1_errors", "galerkin_residual"]

_ASSEMBLY_EXTRA_POINTS = 3  # ceil((2k+2)/2) + 2 == k + 3 Gauss points
_ERROR_EXTRA_POINTS = 5  # k + 5 Gauss points for the H1 error integrals

# quadrature points per block: 2**15 float64 values are 256 KiB per array,
# so every pass over a block stays in L2 (2**13..2**17 measured; 2**15 was
# fastest).  Unlike the draws, the rounding of the products depends on the
# block shape, so this size is the quadrature's own, not `rng`'s.
_BLOCK = 1 << 15

# threads that share a call's blocks: the caller and one helper.  numpy's
# ufuncs and BLAS calls release the GIL, and np.sin over a block ran 1.95x
# faster on two threads of a 2-vCPU host; no other count was measured, so
# `_each_block` runs at most one helper, and more would need a measurement
# on a machine with more CPUs.  `cli._each_point` sets it to 1 while its
# two processes already use the two CPUs.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@dataclass(frozen=True)
class FemSolution:
    """One Galerkin solve in the Lobatto basis.

    ``slopes[e]`` is the slope of u_h's vertex interpolant on element e
    (the mean of u_h' there); ``bubbles[e, j - 2]`` is the coefficient of
    bubble j.  Vertex values follow from u(0) = 0 as a running sum of
    slope times element length.  The order and the two arrays are checked
    by the rule of `_checked_solves`, which `h1_errors` applies to the
    arrays of many solves at once.  `assemble_solve` makes its solves by
    `_store`, without that check of the order and arrays it has just made;
    a mesh whose load points fit in one `_BLOCK` it solves in one pass,
    with no block walker.
    """

    order: int
    mesh: Mesh1D
    slopes: np.ndarray
    bubbles: np.ndarray

    def __post_init__(self):
        _checked_solves(self.order, self.slopes, self.bubbles, self.mesh.gaps.shape)

    def _store(self, order: int, mesh: Mesh1D, slopes: np.ndarray,
               bubbles: np.ndarray) -> FemSolution:
        """Set the four fields of this solve from values already checked; return it."""
        self.__dict__.update(order=order, mesh=mesh, slopes=slopes, bubbles=bubbles)
        return self

    def element_values(self) -> np.ndarray:
        """Per element, the Lobatto coefficients of u_h: both vertex values, then bubbles."""
        vertex_values = np.zeros(self.mesh.n_elements + 1)
        (self.slopes * self.mesh.gaps).cumsum(out=vertex_values[1:])
        out = np.empty((self.mesh.n_elements, self.order + 1))
        out[:, 0] = vertex_values[:-1]
        out[:, 1] = vertex_values[1:]
        out[:, 2:] = self.bubbles
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


def _fem_order(order) -> int:
    """An element order this module supports: an integer in [1, MAX_ORDER]."""
    k = _checked_count(order, "order")
    if k > MAX_ORDER:
        raise ParameterError(f"order must lie in [1, {MAX_ORDER}], got {k}")
    return k


def _checked_solves(order, slopes, bubbles, shape: tuple[int, ...]) -> int:
    """The order of the solves these arrays hold, checked by `_fem_order`.

    `slopes` and `bubbles` must be numpy arrays of real numbers
    (`errors._checked_real`) of shape `shape` and ``shape + (k - 1,)``,
    where `shape` is that of the mesh gaps: (elements,) for one mesh,
    (meshes, elements) for node rows.  Anything else is a `ParameterError`.
    """
    k = _fem_order(order)
    want = shape + (k - 1,)
    if not (isinstance(slopes, np.ndarray) and isinstance(bubbles, np.ndarray)
            and slopes.shape == shape and bubbles.shape == want):
        raise ParameterError(
            f"slopes and bubbles of order-{k} solves on these mesh nodes must be arrays"
            f" of shape {shape} and {want}, got {_described(slopes)} and {_described(bubbles)}"
        )
    _checked_real(slopes, "slopes")
    _checked_real(bubbles, "bubbles")
    return k


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


@lru_cache(maxsize=None)
def _reference_element(order: int, extra_points: int):
    """Per-degree tabulation reused across every element and mesh.

    Returns (point_map, weights, values, derivs).  The point map's rows are
    the points t and ones: (h, left) @ point_map gives an element's points
    left + h * t.  The product rounds h * t, then adds left * 1, so each
    point is rounded exactly as the elementwise form; it runs ~5x faster
    than broadcasting over the few points of each element.
    """
    # Gauss-Legendre points and weights mapped from [-1, 1] to [0, 1]
    points, weights = np.polynomial.legendre.leggauss(order + extra_points)
    points, weights = 0.5 * (points + 1.0), 0.5 * weights
    values, derivs = _lobatto_tables(order, points)
    point_map = np.stack((points, np.ones_like(points)))
    point_map.flags.writeable = False
    return point_map, weights, values, derivs


def _points(lengths: np.ndarray, lefts: np.ndarray, point_map: np.ndarray) -> np.ndarray:
    """Quadrature points of elements of these lengths and left ends, one row each.

    `lengths` and `lefts` have one shape, 1-D for one mesh or 2-D with one
    row per mesh; the points add a last axis.
    """
    edges = np.empty(lengths.shape + (2,))
    edges[..., 0] = lengths
    edges[..., 1] = lefts
    return edges @ point_map


def _half(run, items: list, first: int, results: dict, failures: dict) -> None:
    """Run `run` of items `first`, `first + 2`, ... in order: one half of a split.

    Each result goes into `results` under its item's index.  The first item
    that raises ends the half, its exception going into `failures` under its
    index.  This is the package's one split rule: `_each_block` runs the two
    halves of a call's blocks on the calling thread and a helper thread, and
    `cli._each_point` the two halves of a command's points in the CLI process
    and a forked worker.  Both then raise ``failures[min(failures)]``, the
    exception of the first failing item in item order, which is the one a
    serial loop raises, since each half ran in order up to its first failure.
    """
    for index in range(first, len(items), 2):
        try:
            results[index] = run(items[index])
        except Exception as error:  # raised by the caller of both halves, in item order
            failures[index] = error
            return


def _each_block(body, blocks: list) -> None:
    """Call `body(*block)` once for each block, the blocks split between two threads.

    The calling thread runs the even blocks and one helper thread the odd
    ones, each by `_half`; with one block, or with `_WORKERS` at 1, every
    block runs inline, with no thread.  The bodies must write disjoint
    results, so the results do not depend on the split.  If blocks raise,
    the exception of the first of them in block order is raised once the
    helper has ended: the one a serial loop would raise.
    """
    if _WORKERS < 2 or len(blocks) < 2:
        for block in blocks:
            body(*block)
        return

    def run(block) -> None:
        body(*block)

    failures = {}  # block index -> its exception; each half stops at its first
    helper = threading.Thread(target=_half, args=(run, blocks, 1, {}, failures))
    try:
        helper.start()
        _half(run, blocks, 0, {}, failures)
    finally:
        if helper.ident is not None:  # started: a failed start raises above
            helper.join()
    if failures:
        raise failures[min(failures)]


def _problem_values(problem: Problem1D, name: str, x: np.ndarray) -> np.ndarray:
    """The values of `problem`'s callable `name` at the points `x`, as float64.

    Values that are not real numbers by `errors._checked_real` (bools,
    complex numbers, text, objects), or neither one value (0-d) nor one per
    point (the shape of `x`), are a `ParameterError` naming the problem and
    the callable, where numpy would drop an imaginary part with only a
    warning, parse numeric text, broadcast values of another shape over the
    points, or fail with an error of its own.
    """
    what = f"problem {problem.name!r}: {name} values"
    values = _checked_real(np.asarray(getattr(problem, name)(x)), what)
    if values.ndim and values.shape != x.shape:
        raise ParameterError(f"{what} must be one value or one per point, of shape {x.shape},"
                             f" got shape {values.shape}")
    return values.astype(np.float64, copy=False)


def _block_loads(lengths: np.ndarray, lefts: np.ndarray, k: int,
                 problem: Problem1D) -> np.ndarray:
    """Per element of these lengths and left ends, the loads l(phi) of its
    k + 1 Lobatto basis functions: one row each."""
    point_map, weights, values, _ = _reference_element(k, _ASSEMBLY_EXTRA_POINTS)
    f_quad = _problem_values(problem, "source", _points(lengths, lefts, point_map))
    if not np.isfinite(f_quad).all():
        raise ParameterError(
            f"problem {problem.name!r}: source values must not contain infs or NaNs"
        )
    return lengths[:, None] * ((f_quad * weights) @ values)


def _element_loads(mesh: Mesh1D, k: int, problem: Problem1D) -> np.ndarray:
    """Per element of `mesh`, the loads of `_block_loads`: in one pass when the
    mesh's quadrature points fit in one `_BLOCK`, else block by block."""
    lengths, lefts = mesh.gaps, mesh.nodes[:-1]
    points = k + _ASSEMBLY_EXTRA_POINTS
    if mesh.n_elements * points <= _BLOCK:
        return _block_loads(lengths, lefts, k, problem)
    loads = np.empty((mesh.n_elements, k + 1))

    def load(_, elements: slice) -> None:
        loads[elements] = _block_loads(lengths[elements], lefts[elements], k, problem)

    _each_block(load, list(_blocks(1, mesh.n_elements, points, _BLOCK)))
    return loads


def assemble_solve(mesh: Mesh1D, order: int, problem: Problem1D) -> FemSolution:
    """Galerkin solution of -u'' = f with degree-`order` elements.

    The hat equation at vertex v reads s_{v-1} - s_v = l(hat_v) for the
    element slopes s, so the slopes are a constant minus the running sum of
    the vertex loads; u(1) = 0, i.e. sum_e h_e s_e = 0, fixes the constant.
    Bubble j of element e decouples: b_ej / h_e = l(phi_ej).
    """
    k = _fem_order(order)
    loads = _element_loads(mesh, k, problem)
    lengths = mesh.gaps

    vertex_loads = np.zeros(mesh.n_elements)
    np.add(loads[:-1, 1], loads[1:, 0], out=vertex_loads[1:])
    passed = vertex_loads.cumsum()
    # a numpy reduction, not a BLAS dot: OpenBLAS splits long dots across
    # its threads, so their rounding would depend on the thread count
    slopes = np.add.reduce(lengths * passed) / lengths.sum() - passed
    # scaled in place, so the solve holds no second (n, k - 1) array
    bubbles = loads[:, 2:]
    bubbles *= lengths[:, None]
    return object.__new__(FemSolution)._store(k, mesh, slopes, bubbles)


def h1_error(solution: FemSolution, problem: Problem1D) -> tuple[float, float]:
    """Full H1 norm and H1 seminorm of the discretization error.

    The one-row call of `h1_errors`: its blocks are whole elements of this
    one mesh, as many as fit in `_BLOCK` quadrature points.
    """
    rows = (solution.mesh.nodes[None], solution.slopes[None], solution.bubbles[None])
    full, semi = h1_errors(solution.order, *rows, problem)
    return float(full[0]), float(semi[0])


def _trials_per_block(n_elements: int, order: int) -> int:
    """How many n-element meshes of degree `order` one `h1_errors` block holds.

    A caller that passes `h1_errors` at most this many meshes at a time
    gets one block per call, so one call of each exact-solution callable
    per call.
    """
    return _rows_per_block(n_elements, _fem_order(order) + _ERROR_EXTRA_POINTS, _BLOCK)


def h1_errors(
    order: int,
    nodes: np.ndarray,
    slopes: np.ndarray,
    bubbles: np.ndarray,
    problem: Problem1D,
) -> tuple[np.ndarray, np.ndarray]:
    """Full H1 norms and H1 seminorms of the errors of T solves of one order.

    Row t of `nodes` (T, n + 1), `slopes` (T, n) and `bubbles` (T, n, k - 1)
    is one degree-k solve on an n-element mesh, as in `FemSolution`; the
    result is two arrays of shape (T,).  The node rows are checked first, by
    the rule of a `Mesh1D` (`mesh._checked_gaps`), which also gives the
    element lengths; then the order and the solve arrays against the shape
    of those lengths, by the rule of `FemSolution` (`_checked_solves`).  An
    error that is not finite is blamed on the slopes and bubbles if they
    hold an inf or NaN, else on the problem.  Both integrals use k+5 Gauss
    points per element, enough to keep the quadrature contribution orders
    of magnitude below the error itself for smooth solutions.  u_h' is
    taken from the slopes, not from vertex value differences, which would
    add a rounding floor on fine meshes.

    The squared errors are integrated per element, block by block (see
    `rng._blocks`), from u_h's coefficients of that block, sliced from
    one running sum of the vertex values per mesh; the sums over elements
    run once per mesh over all of them.  The products run stacked, one
    BLAS call per mesh of the block, so each mesh's errors equal its own
    one-row call bit for bit, whatever the other meshes of the block.
    """
    lengths, _ = _checked_gaps(nodes)
    n_trials, n_elements = lengths.shape
    k = _checked_solves(order, slopes, bubbles, lengths.shape)
    point_map, weights, values, derivs = _reference_element(k, _ERROR_EXTRA_POINTS)
    vertex_values = np.zeros((n_trials, n_elements + 1))
    np.cumsum(slopes * lengths, axis=1, out=vertex_values[:, 1:])

    l2_elements = np.empty((n_trials, n_elements))
    semi_elements = np.empty((n_trials, n_elements))

    def integrate(trials: slice, elements: slice) -> None:
        block_lengths = lengths[trials, elements]
        rows = block_lengths.shape
        x_quad = _points(block_lengths, nodes[trials, :-1][:, elements], point_map)
        # u_h's coefficients against the basis and, for u_h', against 1
        # and the bubble derivatives (d/dt of the hat t is 1)
        block_bubbles = bubbles[trials, elements]
        coeffs = np.empty(rows + (k + 1,))
        coeffs[..., 0] = vertex_values[trials, :-1][:, elements]
        coeffs[..., 1] = vertex_values[trials, 1:][:, elements]
        coeffs[..., 2:] = block_bubbles
        slope_coeffs = np.empty(rows + (k,))
        slope_coeffs[..., 0] = slopes[trials, elements]
        np.divide(block_bubbles, block_lengths[..., None], out=slope_coeffs[..., 1:])
        # u_h, then u_h - u, then its square
        diff = coeffs @ values.T
        ddiff = slope_coeffs @ derivs[:, 1:].T
        diff -= _problem_values(problem, "exact_solution", x_quad)
        ddiff -= _problem_values(problem, "exact_derivative", x_quad)
        diff *= diff
        ddiff *= ddiff
        l2_elements[trials, elements] = diff @ weights
        semi_elements[trials, elements] = ddiff @ weights

    _each_block(integrate, list(_blocks(n_trials, n_elements, point_map.shape[1], _BLOCK)))

    l2_sq = (lengths * l2_elements).sum(axis=1)
    semi_sq = (lengths * semi_elements).sum(axis=1)
    full_sq = l2_sq + semi_sq  # both sums are >= 0, so this is finite iff both are
    if not np.isfinite(full_sq).all():
        if not (np.isfinite(slopes).all() and np.isfinite(bubbles).all()):
            raise ParameterError("the H1 error is not finite; the solve's slopes and"
                                 " bubbles must not contain infs or NaNs")
        raise ParameterError(
            f"problem {problem.name!r}: the H1 error is not finite; its exact"
            " solution and derivative values must not contain infs or NaNs"
        )
    return np.sqrt(full_sq), np.sqrt(semi_sq)


def galerkin_residual(solution: FemSolution, problem: Problem1D) -> float:
    """Max residual of the discrete variational identity over interior unknowns.

    Recomputes, in the Lobatto basis, the loads l(phi) with the solve's own
    quadrature and the stiffness action a(u_h, phi), element by element, as
    (1/h) times the quadrature of du_h/dt against each dphi/dt, from the
    solution's coefficients and not through the solve's running sums.  A
    vertex sums the rows of its two elements; a bubble is its own row.  Returns max |l - a| / max |l| over
    the interior vertices and the bubbles; a correct solve leaves only
    rounding, about 1e-10 at n = 65536.
    """
    k = solution.order
    _, weights, _, derivs = _reference_element(k, _ASSEMBLY_EXTRA_POINTS)
    loads = _element_loads(solution.mesh, k, problem)
    duh = solution.element_values() @ derivs.T  # d/dt of u_h at the points
    actions = ((duh * weights) @ derivs) / solution.mesh.gaps[:, None]

    def interior(rows):  # one entry per interior vertex, then one per bubble
        return np.concatenate((rows[:-1, 1] + rows[1:, 0], rows[:, 2:].ravel()))

    scale = float(np.abs(interior(loads)).max(initial=0.0)) or 1.0
    return float(np.abs(interior(loads - actions)).max(initial=0.0) / scale)
