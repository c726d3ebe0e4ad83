"""Solver correctness: containment, nodal exactness, rates, independent references."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.linalg import solveh_banded

from femprob import (
    ParameterError,
    Problem1D,
    _split,
    assemble_solve,
    build_mesh,
    convergence_study,
    fem,
    get_problem,
    h1_error,
    rng,
)
from femprob.fem import FemSolution, galerkin_residual

SINE = get_problem("sine")
POLY2 = get_problem("poly2")


def dense_solve_oracle(mesh, order, problem, n_quad=24):
    """Assemble the same Galerkin system densely through monomial bases.

    Per element, the nodal basis is represented by monomial coefficients
    from an inverted Vandermonde system in *global* coordinates; stiffness
    and load use a fresh Gauss rule.  Shares no code with the banded path.
    """
    points, weights = np.polynomial.legendre.leggauss(n_quad)
    k = order
    n_dof = mesh.n_elements * k + 1
    matrix = np.zeros((n_dof, n_dof))
    rhs = np.zeros(n_dof)
    for e in range(mesh.n_elements):
        left, right = mesh.nodes[e], mesh.nodes[e + 1]
        nodes = np.linspace(left, right, k + 1)
        vander = np.vander(nodes, increasing=True)
        basis_coeffs = np.linalg.inv(vander)  # column j: monomials of phi_j
        x = 0.5 * (right - left) * points + 0.5 * (left + right)
        w = 0.5 * (right - left) * weights
        for j_local in range(k + 1):
            cj = basis_coeffs[:, j_local]
            phi_j = np.polynomial.polynomial.polyval(x, cj)
            dphi_j = np.polynomial.polynomial.polyval(
                x, np.polynomial.polynomial.polyder(cj)
            )
            gj = e * k + j_local
            rhs[gj] += np.sum(w * problem.source(x) * phi_j)
            for i_local in range(k + 1):
                ci = basis_coeffs[:, i_local]
                dphi_i = np.polynomial.polynomial.polyval(
                    x, np.polynomial.polynomial.polyder(ci)
                )
                matrix[e * k + i_local, gj] += np.sum(w * dphi_i * dphi_j)
    solution = np.zeros(n_dof)
    if n_dof > 2:
        solution[1:-1] = np.linalg.solve(matrix[1:-1, 1:-1], rhs[1:-1])
    return solution


def lagrange_basis(order, points):
    """Values and derivatives of the equispaced degree-k Lagrange basis."""
    nodes = np.arange(order + 1) / order
    values = np.empty((points.size, order + 1))
    derivs = np.empty((points.size, order + 1))
    for j in range(order + 1):
        others = np.delete(nodes, j)
        phi = Polynomial.fromroots(others) / np.prod(nodes[j] - others)
        values[:, j] = phi(points)
        derivs[:, j] = phi.deriv()(points)
    return values, derivs


def solveh_banded_reference(mesh, order, problem):
    """Nodal Lagrange assembly solved by scipy's banded Cholesky.

    Shares no code with the library's Lobatto solve; uses the same k+3
    point Gauss rule for the loads, so the two differ by rounding only.
    Returns the nodal coefficients and a first-order bound on this
    reference's own rounding: the relative error of its element stiffness,
    read off the rows that must sum to zero, amplified by the condition
    number of the interior matrix.
    """
    k = order
    points, weights = np.polynomial.legendre.leggauss(k + 3)
    points, weights = 0.5 * (points + 1.0), 0.5 * weights
    values, derivs = lagrange_basis(k, points)
    ref_stiffness = derivs.T @ (weights[:, None] * derivs)
    lengths = np.diff(mesh.nodes)
    n_el = mesh.n_elements
    n_dof = n_el * k + 1
    x_quad = mesh.nodes[:-1, None] + lengths[:, None] * points[None, :]
    element_loads = lengths[:, None] * ((problem.source(x_quad) * weights) @ values)
    load = np.zeros(n_dof)
    matrix = np.zeros((n_dof, n_dof))
    base = np.arange(n_el) * k
    for j in range(k + 1):
        np.add.at(load, base + j, element_loads[:, j])
        for i in range(k + 1):
            np.add.at(matrix, (base + i, base + j), ref_stiffness[i, j] / lengths)
    coefficients = np.zeros(n_dof)
    if n_dof == 2:
        return coefficients, 0.0
    interior = matrix[1:-1, 1:-1]
    width = min(k, n_dof - 3)  # upper band storage; one unknown has no off-diagonal
    band = np.array(
        [np.pad(np.diagonal(interior, width - r), (width - r, 0)) for r in range(width + 1)]
    )
    coefficients[1:-1] = solveh_banded(band, load[1:-1])
    stiffness_error = max(
        np.abs(ref_stiffness.sum(axis=1)).max() / np.abs(ref_stiffness).max(),
        np.finfo(float).eps,
    )
    rounding = np.linalg.cond(interior) * stiffness_error * np.abs(coefficients).max()
    return coefficients, rounding


class TestAssembleSolve:
    def test_quadratic_contained_in_p2(self):
        mesh = build_mesh(4, 0.35, seed=5)
        solution = assemble_solve(mesh, 2, POLY2)
        interior = mesh.nodes[:-1, None] + mesh.gaps[:, None] * [0.0, 0.5]
        x = np.append(interior.ravel(), 1.0)
        np.testing.assert_allclose(
            solution.coefficients, x * (1.0 - x), atol=1e-10
        )

    def test_nodal_value_two_element_sine(self):
        # one interior unknown; its exact value is u(0.5) = 1
        mesh = build_mesh(2, 0.0, seed=0)
        solution = assemble_solve(mesh, 1, SINE)
        assert solution.coefficients[1] == pytest.approx(1.0, abs=1e-6)

    def test_single_element_p1_is_zero(self):
        mesh = build_mesh(1, 0.0, seed=0)
        solution = assemble_solve(mesh, 1, SINE)
        np.testing.assert_array_equal(solution.coefficients, [0.0, 0.0])

    def test_rejects_out_of_range_order(self):
        mesh = build_mesh(4, 0.0, seed=0)
        for order in (0, 11, -1, 2.5, True):
            with pytest.raises(ParameterError):
                assemble_solve(mesh, order, SINE)
        assert assemble_solve(mesh, np.int64(2), SINE).order == 2

    @pytest.mark.parametrize("order,n", [(1, 9), (3, 6), (5, 4)])
    def test_matches_dense_oracle(self, order, n):
        mesh = build_mesh(n, 0.3, seed=order * 100 + n)
        banded = assemble_solve(mesh, order, SINE).coefficients
        dense = dense_solve_oracle(mesh, order, SINE)
        np.testing.assert_allclose(banded, dense, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
    @pytest.mark.parametrize("order", range(1, 11))
    def test_bit_identical_to_solveh_banded_reference(self, order, n, jitter):
        # despite the name, agreement up to the reference's own rounding: the
        # Lobatto solve does different arithmetic; the factor 4 covers the
        # load rounding that the bound leaves out
        mesh = build_mesh(n, jitter, seed=order * 1000 + n)
        lobatto = assemble_solve(mesh, order, SINE).coefficients
        reference, rounding = solveh_banded_reference(mesh, order, SINE)
        assert np.abs(lobatto - reference).max() <= 4.0 * rounding

    @pytest.mark.parametrize("order", range(4, 11))
    def test_error_falls_to_rounding_floor(self, order):
        # non-increasing under refinement until the 1e-12 floor, then stays there
        errors = [
            h1_error(assemble_solve(build_mesh(n, 0.0, 0), order, SINE), SINE)[0]
            for n in (4, 16, 64, 256, 1024, 4096)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= (coarse if coarse > 1e-12 else 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        degree=st.integers(2, 4),
        order=st.integers(2, 10),
        n=st.integers(1, 1024),
        jitter=st.floats(0.0, 0.5, exclude_max=True),
        seed=st.integers(0, 2**32),
    )
    def test_polynomial_solved_to_rounding(self, degree, order, n, jitter, seed):
        assume(order >= degree)
        problem = get_problem(f"poly{degree}")
        solution = assemble_solve(build_mesh(n, jitter, seed), order, problem)
        assert h1_error(solution, problem)[0] <= 1e-13

    def test_nan_source_rejected(self):
        nan_source = Problem1D(
            name="nan-source",
            exact_solution=SINE.exact_solution,
            exact_derivative=SINE.exact_derivative,
            source=lambda x: np.full_like(x, np.nan),
        )
        with pytest.raises(ParameterError, match="'nan-source': .*infs or NaNs"):
            assemble_solve(build_mesh(6, 0.2, seed=3), 2, nan_source)

    @pytest.mark.parametrize("field", ["exact_solution", "exact_derivative"])
    def test_nan_exact_value_rejected(self, field):
        def nan_inside(x):
            # a NaN boundary value is refused at construction, so NaN inside (0, 1) only
            return np.where((x > 0.0) & (x < 1.0), np.nan, 0.0)

        nan_exact = dataclasses.replace(SINE, name="nan-exact", **{field: nan_inside})
        solution = assemble_solve(build_mesh(6, 0.2, seed=3), 2, nan_exact)
        with pytest.raises(ParameterError, match="'nan-exact'"):
            h1_error(solution, nan_exact)
        with pytest.raises(ParameterError, match="'nan-exact'"):
            convergence_study(nan_exact, 2, [4, 8], 0.2, 2, seed=3)

    @pytest.mark.parametrize("field", ["source", "exact_solution", "exact_derivative"])
    @pytest.mark.parametrize("make_values, dtype", [
        (lambda x, real: real(x) + 1j, "complex128"),  # numpy would keep the real part
        (lambda x, real: real(x).astype(str), "<U"),  # numpy would parse the text
        (lambda x, real: np.full(x.shape, "x"), "<U1"),  # numpy's own ValueError
        # numpy's own TypeError for the complex values the objects hold
        (lambda x, real: (real(x) + 1j).astype(object), "object"),
    ], ids=["complex", "numeric_text", "text", "object"])
    def test_problem_values_must_be_real_numbers(self, field, make_values, dtype):
        def values(x):
            # real at both ends, so the problem passes its boundary check
            return make_values(x, getattr(SINE, field)) if x.ndim else getattr(SINE, field)(x)

        bad = dataclasses.replace(SINE, name="bad-values", **{field: values})
        mesh = build_mesh(6, 0.2, seed=3)
        message = (f"^problem 'bad-values': {field} values must be real numbers,"
                   f" got dtype {dtype}")
        with pytest.raises(ParameterError, match=message):
            h1_error(assemble_solve(mesh, 2, bad), bad)

    @pytest.mark.parametrize("field", ["source", "exact_solution", "exact_derivative"])
    @pytest.mark.parametrize("make_values, shape", [
        (lambda x, real: np.ones(3), r"\(3,\)"),  # numpy's own broadcast ValueError
        # one value per Gauss point, which numpy would broadcast over the elements
        (lambda x, real: real(x).reshape(-1, x.shape[-1])[0], r"\(\d+,\)"),
        (lambda x, real: real(x)[..., None], r"\(.*, 1\)"),
    ], ids=["three", "per_gauss_point", "extra_axis"])
    def test_problem_values_must_be_one_or_one_per_point(self, field, make_values, shape):
        def values(x):
            # right at both ends, so the problem passes its boundary check
            return make_values(x, getattr(SINE, field)) if x.ndim else getattr(SINE, field)(x)

        bad = dataclasses.replace(SINE, name="bad-shape", **{field: values})
        mesh = build_mesh(6, 0.2, seed=3)
        message = (f"^problem 'bad-shape': {field} values must be one value or one per point,"
                   f" of shape \\(.*\\), got shape {shape}$")
        with pytest.raises(ParameterError, match=message):
            h1_error(assemble_solve(mesh, 2, bad), bad)

    @pytest.mark.parametrize("order", [1, 2, 5])
    def test_problems_of_one_value_still_solve(self, order):
        # one value for all points is broadcast: u = 0, and -u'' = 2 for u = x - x^2
        zero = Problem1D(name="zero", exact_solution=lambda x: 0.0,
                         exact_derivative=lambda x: 0.0, source=lambda x: 0.0)
        solution = assemble_solve(build_mesh(6, 0.2, seed=3), order, zero)
        assert not solution.slopes.any() and not solution.bubbles.any()
        assert h1_error(solution, zero) == (0.0, 0.0)
        parabola = Problem1D(name="parabola", exact_solution=lambda x: x - x * x,
                             exact_derivative=lambda x: 1.0 - 2.0 * x, source=lambda x: 2)
        full, semi = h1_error(assemble_solve(build_mesh(6, 0.2, seed=3), order, parabola),
                              parabola)
        assert (full <= 1e-13) == (order >= 2) and semi <= full

    @pytest.mark.parametrize("order", [1, 2, 4, 7, 10])
    def test_galerkin_residual_small(self, order):
        mesh = build_mesh(12, 0.25, seed=order)
        solution = assemble_solve(mesh, order, SINE)
        assert galerkin_residual(solution, SINE) <= 1e-9

    @pytest.mark.parametrize("order", range(1, 11))
    def test_galerkin_residual_fine_mesh(self, order):
        # only the solve's rounding is left: about 2e-10 at every order
        mesh = build_mesh(4096, 0.3, seed=order)
        assert galerkin_residual(assemble_solve(mesh, order, SINE), SINE) <= 1e-9

    @pytest.mark.parametrize("n", [2, 12])
    @pytest.mark.parametrize("order", [1, 4, 10])
    def test_galerkin_residual_sees_a_scaled_solution(self, order, n):
        # a(u_h (1 + d), phi) = (1 + d) l(phi), so the residual reads d
        solution = assemble_solve(build_mesh(n, 0.3, seed=order), order, SINE)
        scaled = FemSolution(
            order, solution.mesh, solution.slopes * (1 + 1e-6), solution.bubbles * (1 + 1e-6)
        )
        assert galerkin_residual(scaled, SINE) >= 1e-7


class TestH1Error:
    def test_contained_solution_error_vanishes(self):
        mesh = build_mesh(7, 0.2, seed=1)
        solution = assemble_solve(mesh, 2, POLY2)
        full, semi = h1_error(solution, POLY2)
        assert full <= 1e-10
        assert semi <= full

    def test_full_norm_dominates_seminorm(self):
        mesh = build_mesh(16, 0.3, seed=2)
        solution = assemble_solve(mesh, 1, SINE)
        full, semi = h1_error(solution, SINE)
        assert full >= semi >= 0.0
        assert np.isfinite(full)

    def test_first_order_rate(self):
        errors = []
        for n in (16, 32):
            solution = assemble_solve(build_mesh(n, 0.0, 0), 1, SINE)
            errors.append(h1_error(solution, SINE)[0])
        assert 1.9 <= errors[0] / errors[1] <= 2.1

    def test_second_order_rate(self):
        errors = []
        for n in (16, 32):
            solution = assemble_solve(build_mesh(n, 0.0, 0), 2, SINE)
            errors.append(h1_error(solution, SINE)[0])
        assert 3.7 <= errors[0] / errors[1] <= 4.3

    def test_semi_norm_against_energy_identity(self):
        # for this operator the error seminorm satisfies
        # |u - u_h|_1^2 = |u|_1^2 - |u_h|_1^2; check both routes agree
        mesh = build_mesh(20, 0.0, 0)
        solution = assemble_solve(mesh, 1, SINE)
        _, semi = h1_error(solution, SINE)
        u_energy = np.pi**2 / 2.0  # integral of (pi cos(pi x))^2
        nodes = mesh.nodes  # the degree-1 nodes are the vertices
        slopes = np.diff(solution.coefficients) / np.diff(nodes)
        uh_energy = float(np.sum(slopes**2 * np.diff(nodes)))
        assert semi**2 == pytest.approx(u_energy - uh_energy, rel=1e-8)


def stacked(solutions):
    """The `h1_errors` arguments of solves of one order, one row per solve."""
    return (
        solutions[0].order,
        np.stack([s.mesh.nodes for s in solutions]),
        np.stack([s.slopes for s in solutions]),
        np.stack([s.bubbles for s in solutions]),
    )


class TestH1Errors:
    @pytest.mark.parametrize("order", [1, 2, 4, 10])
    @pytest.mark.parametrize("n", [1, 3, 50, 2200])
    @pytest.mark.parametrize("block_points", [None, 600])
    def test_rows_equal_one_row_calls(self, order, n, block_points, monkeypatch):
        # whole meshes several to a block, part-filled last blocks, and
        # meshes split into element blocks, next to meshes of other jitter
        if block_points is not None:
            monkeypatch.setattr(fem, "_BLOCK", block_points)
        problem = get_problem("sine24")
        solutions = [
            assemble_solve(build_mesh(n, jitter, seed), order, problem)
            for seed, jitter in enumerate([0.0, 0.3, 0.1, 0.45, 0.3] if n < 2200 else [0.3, 0.0])
        ]
        full, semi = fem.h1_errors(*stacked(solutions), problem)
        assert list(zip(full.tolist(), semi.tolist())) == [
            h1_error(s, problem) for s in solutions
        ]

    def test_shapes_and_order_checked(self):
        solutions = [assemble_solve(build_mesh(4, 0.3, seed), 3, SINE) for seed in (1, 2)]
        order, nodes, slopes, bubbles = stacked(solutions)
        with pytest.raises(ParameterError, match="bubbles"):
            fem.h1_errors(order, nodes, slopes, bubbles[:, :, :1], SINE)
        with pytest.raises(ParameterError, match="nodes"):
            fem.h1_errors(order, nodes[:1], slopes, bubbles, SINE)
        with pytest.raises(ParameterError, match="order"):
            fem.h1_errors(11, nodes, slopes, bubbles, SINE)
        full, semi = fem.h1_errors(order, nodes[:0], slopes[:0], bubbles[:0], SINE)
        assert full.shape == semi.shape == (0,)

    def test_meshes_without_elements_rejected(self):
        with pytest.raises(ParameterError, match="^a mesh needs at least two nodes$"):
            fem.h1_errors(2, np.zeros((3, 1)), np.zeros((3, 0)), np.zeros((3, 0, 1)), SINE)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, 0.7, 0.5, 1.0], "^mesh nodes must be strictly increasing$"),
            ([0.2, 0.5, 0.7, 0.9], r"^mesh must span exactly \[0, 1\]$"),
            ([0.0, np.nan, 0.5, 1.0], "^mesh nodes must be strictly increasing$"),
        ],
        ids=["unsorted", "short", "nan"],
    )
    def test_node_rows_checked_by_the_mesh_rule(self, row, message):
        # the element lengths come from the rule that checks a `Mesh1D`, so a
        # row that is no mesh is refused as one, not integrated or blamed on
        # the problem
        with pytest.raises(ParameterError, match=message):
            fem.h1_errors(1, np.array([row]), np.zeros((1, 3)), np.zeros((1, 3, 0)), SINE)

    @pytest.mark.parametrize(
        "slopes, message",
        [
            (np.zeros(4), r"slopes and bubbles .* got shape \(4,\) and"),
            ([[0.0] * 4], "slopes and bubbles .* got list and"),
        ],
        ids=["1-D", "list"],
    )
    def test_slopes_must_be_an_array_of_the_node_rows(self, slopes, message):
        nodes = build_mesh(4, 0.3, seed=1).nodes[None]
        with pytest.raises(ParameterError, match=message):
            fem.h1_errors(1, nodes, slopes, np.zeros((1, 4, 0)), SINE)

    def test_nodes_must_be_an_array(self):
        nodes = build_mesh(4, 0.3, seed=1).nodes[None]
        with pytest.raises(ParameterError, match="^nodes must be a 2-D array .* got list$"):
            fem.h1_errors(1, nodes.tolist(), np.zeros((1, 4)), np.zeros((1, 4, 0)), SINE)
        with pytest.raises(ParameterError, match=r"got shape \(5,\)$"):
            fem.h1_errors(1, nodes[0], np.zeros((1, 4)), np.zeros((1, 4, 0)), SINE)

    @pytest.mark.parametrize("field", ["slopes", "bubbles"])
    def test_non_finite_solve_is_blamed_on_the_solve(self, field):
        # a NaN in the solve, not in the problem's values, makes the error NaN
        solutions = [assemble_solve(build_mesh(4, 0.3, seed), 3, SINE) for seed in (1, 2)]
        order, nodes, slopes, bubbles = stacked(solutions)
        {"slopes": slopes, "bubbles": bubbles}[field][1, 2] = np.nan
        with pytest.raises(ParameterError, match="^the H1 error is not finite; the solve's"):
            fem.h1_errors(order, nodes, slopes, bubbles, SINE)
        broken = FemSolution(order, solutions[1].mesh, slopes[1], bubbles[1])
        with pytest.raises(ParameterError, match="slopes and bubbles must not contain"):
            h1_error(broken, SINE)


class TestFemSolution:
    # one rule, `fem._checked_solves`, checks a solve here and in `h1_errors`
    @pytest.mark.parametrize(
        "order, message",
        [
            (True, "^order must be an integer, got True$"),
            (11, r"^order must lie in \[1, 10\], got 11$"),
            (1.5, "^order must be an integer, got 1.5$"),
            (0, r"^order must lie in \[1, 10\], got 0$"),
        ],
        ids=["bool", "above-max", "float", "zero"],
    )
    def test_order_checked(self, order, message):
        # the bubbles have the shape the order implies, so only the order is wrong
        mesh = build_mesh(4, 0.3, seed=1)
        bubbles = np.zeros((4, max(int(order) - 1, 0)))
        with pytest.raises(ParameterError, match=message):
            FemSolution(order, mesh, np.zeros(4), bubbles)

    def test_slopes_must_be_an_array(self):
        mesh = build_mesh(4, 0.3, seed=1)
        with pytest.raises(ParameterError, match="got list and shape"):
            FemSolution(1, mesh, [0.0] * 4, np.zeros((4, 0)))

    def test_shapes_checked_against_the_mesh(self):
        solution = assemble_solve(build_mesh(4, 0.3, seed=1), 3, SINE)
        with pytest.raises(ParameterError, match=r"shape \(4,\) and \(4, 2\), got shape"):
            FemSolution(3, solution.mesh, solution.slopes[:3], solution.bubbles)
        with pytest.raises(ParameterError, match="bubbles"):
            FemSolution(3, solution.mesh, solution.slopes, solution.bubbles[:, :1])
        assert FemSolution(np.int64(3), solution.mesh, solution.slopes, solution.bubbles)


def counting(problem):
    """`problem` with call counters on its three callables, which may be
    called from two threads at once."""
    calls = {"source": 0, "exact_solution": 0, "exact_derivative": 0}
    lock = threading.Lock()

    def counted(name):
        def call(x):
            with lock:
                calls[name] += 1
            return getattr(problem, name)(x)

        return call

    wrapped = Problem1D(
        name=problem.name, **{name: counted(name) for name in calls}
    )
    for name in calls:
        calls[name] = 0  # forget the boundary checks of construction
    return wrapped, calls


class TestElementBlocks:
    @pytest.mark.parametrize("order", range(1, 11))
    def test_blocked_equals_one_block(self, order, monkeypatch):
        # what `fem` guarantees: a rerun at one block size is byte-identical,
        # while one whole-mesh block agrees to rounding only.  Three full
        # blocks of the load rule and a ragged fourth, of 7 elements or of
        # 1, which takes numpy's one-row product path: at k = 10, n = 7561
        # that moves the bubbles by about 1e-18 of the largest.  The error
        # rule has more points, so its blocks are smaller and ragged too.
        per_block = fem._BLOCK // (order + fem._ASSEMBLY_EXTRA_POINTS)
        for n in (3 * per_block + 7, 3 * per_block + 1):
            mesh = build_mesh(n, 0.3, seed=order)
            problem, calls = counting(get_problem("sine24"))
            blocked = assemble_solve(mesh, order, problem)
            blocked_errors = h1_error(blocked, problem)
            assert calls["source"] == 4
            assert calls["exact_solution"] == calls["exact_derivative"] >= 4

            rerun = assemble_solve(mesh, order, problem)
            assert rerun.slopes.tobytes() == blocked.slopes.tobytes()
            assert rerun.bubbles.tobytes() == blocked.bubbles.tobytes()
            assert h1_error(rerun, problem) == blocked_errors

            calls["source"] = 0
            with monkeypatch.context() as patch:
                patch.setattr(fem, "_BLOCK", 16 * n)
                whole = assemble_solve(mesh, order, problem)
                whole_errors = h1_error(whole, problem)
            assert calls["source"] == 1
            for got, want in [(whole.slopes, blocked.slopes), (whole.bubbles, blocked.bubbles)]:
                scale = np.abs(want).max(initial=0.0)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * scale)
            np.testing.assert_allclose(whole_errors, blocked_errors, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_one_pass_up_to_one_block(self, order, monkeypatch):
        # a mesh whose n (k + 3) load points fit in `_BLOCK` is solved in one
        # pass, one source call; one element more takes the walker, here a
        # block of 5 elements and a ragged block of 1, whose rows are those
        # `_block_loads` gives each block alone.  That one-element block takes
        # numpy's one-row product path, and the loads of these coarse sine24
        # meshes cancel, so its solve moves by up to about 1e-13 of the
        # largest slope or bubble (k = 1..10, 20 seeds)
        problem, calls = counting(get_problem("sine24"))
        meshes = {n: build_mesh(n, 0.3, seed=n + order) for n in (5, 6)}
        unpatched = {n: assemble_solve(mesh, order, problem) for n, mesh in meshes.items()}
        points = order + fem._ASSEMBLY_EXTRA_POINTS
        monkeypatch.setattr(fem, "_BLOCK", 5 * points)
        for n, source_calls in [(5, 1), (6, 2)]:
            want = unpatched[n]
            calls["source"] = 0
            got = assemble_solve(meshes[n], order, problem)
            assert calls["source"] == source_calls
            got_errors, want_errors = h1_error(got, problem), h1_error(want, problem)
            if n == 5:
                assert got.slopes.tobytes() == want.slopes.tobytes()
                assert got.bubbles.tobytes() == want.bubbles.tobytes()
                assert got_errors == want_errors
            for got_array, want_array in [(got.slopes, want.slopes),
                                          (got.bubbles, want.bubbles)]:
                scale = np.abs(want_array).max(initial=0.0)
                np.testing.assert_allclose(got_array, want_array, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(got_errors, want_errors, rtol=1e-13, atol=0.0)
        gaps, lefts = meshes[6].gaps, meshes[6].nodes[:-1]
        rows = [fem._block_loads(gaps[block], lefts[block], order, problem)
                for _, block in rng._blocks(1, 6, points, fem._BLOCK)]
        assert len(rows) == 2
        want = np.concatenate(rows)
        hats, bubbles = fem._element_loads(meshes[6], order, problem)
        assert hats.tobytes() == want[:, :2].tobytes()
        assert bubbles.tobytes() == want[:, 2:].tobytes()

    @pytest.mark.parametrize("order", [1, 2, 10])
    def test_solve_equals_its_public_construction(self, order):
        # `assemble_solve` stores its fields unchecked; they are those the
        # public constructor takes and checks
        solution = assemble_solve(build_mesh(12, 0.3, seed=order), order, SINE)
        public = FemSolution(solution.order, solution.mesh, solution.slopes, solution.bubbles)
        assert vars(solution).keys() == vars(public).keys()
        assert all(getattr(solution, name) is getattr(public, name) for name in vars(public))
        assert type(solution.order) is int and solution.order == order
        assert solution.slopes.dtype == solution.bubbles.dtype == np.float64

    @pytest.mark.parametrize("extra", [fem._ASSEMBLY_EXTRA_POINTS, fem._ERROR_EXTRA_POINTS])
    @pytest.mark.parametrize("order", range(1, 11))
    def test_points_round_as_left_plus_h_t(self, order, extra):
        # the blocks form the points as a matrix product; it must round
        # each point exactly as the elementwise left + h * t
        point_map = fem._reference_element(order, extra)[0]
        points = point_map[0]
        for n in (1, 7, 3 * (fem._BLOCK // points.size) + 7):
            mesh = build_mesh(n, 0.3, seed=n + order)
            want = mesh.nodes[:-1, None] + mesh.gaps[:, None] * points
            got = np.concatenate([
                fem._points(mesh.gaps[block], mesh.nodes[:-1][block], point_map)
                for _, block in rng._blocks(1, n, points.size, fem._BLOCK)
            ])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [1, 10])
    def test_walker_bubbles_own_their_bytes(self, order):
        # a mesh of more than one block of load points writes its bubble
        # loads into an array of their own, so the solve holds no (n, 2) hat
        # loads or (n, k + 1) load array behind its bubbles: at k = 1 that
        # would be 1 MiB behind a 0-byte view
        n = 65536
        assert n * (order + fem._ASSEMBLY_EXTRA_POINTS) > fem._BLOCK
        bubbles = assemble_solve(build_mesh(n, 0.3, seed=order), order, SINE).bubbles
        assert bubbles.base is None

    def test_peak_memory_of_a_large_solve(self):
        # numpy reports its buffers to tracemalloc.  At n = 65536, k = 10,
        # arrays over all 983,040 load points and 1,966,080 error points
        # peak at 50.5 MiB; in blocks, with u_h's coefficients formed block
        # by block, the bubbles owning their bytes and each block dropping
        # its coefficients before the problem's evaluations, the peak is
        # 9.5 MiB on two threads (8.3 MiB on one).  Bubbles that keep the
        # solve's whole (n, k + 1) load array alive raise it to 11.2 MiB
        mesh = build_mesh(65536, 0.3, seed=2026)
        problem = get_problem("sine24")
        tracemalloc.start()
        try:
            h1_error(assemble_solve(mesh, 10, problem), problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


def _failing_in(first_bad, make_error):
    """sine24 whose source raises `make_error(x)` on every block of points
    reaching past `first_bad`, recording the thread of each call.  A call
    off the main thread first sleeps 50 ms, so a helper outlives the
    caller's own blocks."""
    sine24, threads, main = get_problem("sine24"), set(), threading.get_ident()

    def source(x):
        threads.add(threading.get_ident())
        if threading.get_ident() != main:
            time.sleep(0.05)
        if x.max() > first_bad:
            raise make_error(x)
        return sine24.source(x)

    return dataclasses.replace(sine24, name="failing", source=source), threads


class TestBlockRunner:
    """`_split._each_block` splits a `fem` call's blocks between the caller
    and one helper thread, or runs them inline at `_WORKERS = 1`; nothing
    a caller sees depends on it."""

    @pytest.mark.parametrize("order", range(1, 11))
    def test_worker_count_changes_no_bit(self, order, monkeypatch):
        # 64 points a block: the 97-element meshes take blocks of columns,
        # the 2-element meshes blocks of whole meshes.  Two threads,
        # switching every microsecond, still write every block once.
        monkeypatch.setattr(fem, "_BLOCK", 64)
        outputs = {}
        interval = sys.getswitchinterval()
        for workers in (1, 2):
            monkeypatch.setattr(_split, "_WORKERS", workers)
            problem, calls = counting(get_problem("sine24"))
            got = []
            sys.setswitchinterval(1e-6)
            try:
                for n, trials in [(97, 3), (2, 12)]:
                    solutions = [assemble_solve(build_mesh(n, 0.3, seed), order, problem)
                                 for seed in range(trials)]
                    full, semi = fem.h1_errors(*stacked(solutions), problem)
                    got += [s.slopes.tobytes() + s.bubbles.tobytes() for s in solutions]
                    got += [full.tobytes(), semi.tobytes()]
            finally:
                sys.setswitchinterval(interval)
            outputs[workers] = got, calls
        assert outputs[2] == outputs[1]
        assert outputs[1][1]["exact_solution"] > 3 + 1  # more than one block a call

    @staticmethod
    def _split_failure(workers, monkeypatch, make_problem):
        """The exception of a 150-element solve at `_WORKERS = workers`, in
        blocks of 40 elements, whose problem `make_problem(nodes)` fails."""
        monkeypatch.setattr(fem, "_BLOCK", 40 * (2 + fem._ASSEMBLY_EXTRA_POINTS))
        monkeypatch.setattr(_split, "_WORKERS", workers)
        mesh = build_mesh(150, 0.3, seed=1)
        with pytest.raises(Exception) as raised:
            assemble_solve(mesh, 2, make_problem(mesh.nodes))
        return type(raised.value), str(raised.value)

    @pytest.mark.parametrize("workers", [2])
    def test_non_finite_last_block_gets_the_serial_message(self, workers, monkeypatch):
        sine24 = get_problem("sine24")

        def nan_in_last_block(nodes):  # the fourth block starts at element 120
            def source(x):
                return np.where(x > nodes[120], np.nan, sine24.source(x))
            return dataclasses.replace(sine24, name="nan-tail", source=source)

        serial = self._split_failure(1, monkeypatch, nan_in_last_block)
        assert serial == (
            ParameterError, "problem 'nan-tail': source values must not contain infs or NaNs"
        )
        assert self._split_failure(workers, monkeypatch, nan_in_last_block) == serial

    @pytest.mark.parametrize("workers", [2])
    def test_first_failing_block_in_block_order_is_raised(self, workers, monkeypatch):
        # blocks 1, 2 and 3 of 0..3 fail, each naming its first point: a
        # serial loop raises block 1's, and so must the split one
        def failing(nodes):
            return _failing_in(nodes[40], lambda x: ValueError(f"block from {x.min()!r}"))[0]

        serial = self._split_failure(1, monkeypatch, failing)
        assert serial[0] is ValueError
        assert self._split_failure(workers, monkeypatch, failing) == serial

    def test_helpers_are_joined_and_single_blocks_run_inline(self, monkeypatch):
        monkeypatch.setattr(_split, "_WORKERS", 2)
        start = threading.active_count()
        problem, threads = _failing_in(np.inf, ValueError)
        assemble_solve(build_mesh(8, 0.3, seed=1), 3, problem)
        assert threads == {threading.get_ident()} and threading.active_count() == start

        # two blocks: the helper's is written before the call returns
        monkeypatch.setattr(fem, "_BLOCK", 200)
        mesh = build_mesh(40, 0.3, seed=1)
        split = assemble_solve(mesh, 3, problem)
        assert len(threads) == 2 and threading.active_count() == start
        monkeypatch.setattr(_split, "_WORKERS", 1)
        serial = assemble_solve(mesh, 3, problem)
        assert split.bubbles.tobytes() == serial.bubbles.tobytes()

        monkeypatch.setattr(_split, "_WORKERS", 2)
        problem, _ = _failing_in(0.0, lambda x: ValueError("bad block"))
        with pytest.raises(ValueError, match="^bad block$"):
            assemble_solve(mesh, 3, problem)
        assert threading.active_count() == start


# one large solve, printed as the exact bytes of its results
LARGE_SOLVE = """
import sys
from femprob import assemble_solve, build_mesh, get_problem, h1_error
problem = get_problem("sine24")
mesh = build_mesh(65536, 0.3, seed=2026)
solution = assemble_solve(mesh, 2, problem)
sys.stdout.write(solution.slopes.tobytes().hex())
sys.stdout.write(solution.bubbles.tobytes().hex())
sys.stdout.write(repr(h1_error(solution, problem)))
"""


def test_large_solve_is_independent_of_blas_threads():
    # OpenBLAS splits long dot products across its threads, which changes
    # their rounding; no result may depend on the thread count
    outputs = {
        threads: subprocess.run(
            [sys.executable, "-c", LARGE_SOLVE],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    }
    assert outputs["1"] == outputs["2"]
