"""Library problems: consistency of solution, derivative, source, seminorms."""

import numpy as np
import pytest
from scipy.integrate import quad

from femprob import ParameterError, Problem1D, UnsupportedProblemError, get_problem
from femprob.problems import available_problems, seminorm_reference

LIBRARY = ["sine", "sine3", "poly2", "poly3", "poly4"]


class TestRegistry:
    def test_known_names(self):
        for name in LIBRARY:
            assert get_problem(name).name == name

    def test_parametric_sine(self):
        problem = get_problem("sine7")
        x = np.array([0.25])
        assert problem.exact_solution(x)[0] == pytest.approx(np.sin(7 * np.pi * 0.25))

    def test_unknown_name(self):
        with pytest.raises(UnsupportedProblemError):
            get_problem("nosuch")
        with pytest.raises(UnsupportedProblemError):
            get_problem("sine0")

    def test_available_names_resolve(self):
        for name in available_problems():
            assert get_problem(name).name == name

    def test_unknown_name_lists_the_sine_family(self):
        with pytest.raises(UnsupportedProblemError,
                           match=r"sineN for an integer N from 1 to 2617, or a larger N"):
            get_problem("nosuch")

    def test_sine_family_is_what_the_dirichlet_check_passes(self):
        # sin(N*pi) in float64 drifts from 0 as N grows: 2618 is the first N
        # whose u misses the boundary condition by more than 1e-12
        assert get_problem("sine2617").name == "sine2617"
        with pytest.raises(ParameterError, match="Dirichlet"):
            get_problem("sine2618")
        with pytest.raises(UnsupportedProblemError):
            get_problem("sine1" + "0" * 307)

    @pytest.mark.parametrize(
        "name", [123, ["sine"], b"sine", None], ids=["int", "list", "bytes", "none"]
    )
    def test_name_must_be_a_string(self, name):
        # unchecked, each raised a bare TypeError from the dict or the regex
        with pytest.raises(ParameterError, match="^problem name must be a string, got "):
            get_problem(name)


class TestConsistency:
    @pytest.mark.parametrize("name", LIBRARY)
    def test_derivative_matches_solution(self, name):
        problem = get_problem(name)
        x = np.linspace(0.01, 0.99, 101)
        step = 1e-6
        numeric = (problem.exact_solution(x + step) - problem.exact_solution(x - step)) / (
            2 * step
        )
        np.testing.assert_allclose(problem.exact_derivative(x), numeric, atol=5e-4)

    @pytest.mark.parametrize("name", LIBRARY)
    def test_source_is_negative_second_derivative(self, name):
        problem = get_problem(name)
        x = np.linspace(0.01, 0.99, 101)
        step = 1e-6
        numeric = (
            problem.exact_derivative(x + step) - problem.exact_derivative(x - step)
        ) / (2 * step)
        np.testing.assert_allclose(problem.source(x), -numeric, atol=5e-3)

    def test_boundary_enforced_at_construction(self):
        with pytest.raises(ParameterError):
            Problem1D(
                name="bad",
                exact_solution=lambda x: np.cos(np.pi * x),
                exact_derivative=lambda x: -np.pi * np.sin(np.pi * x),
                source=lambda x: np.pi**2 * np.cos(np.pi * x),
            )

    @pytest.mark.parametrize(
        "exact_solution",
        [
            lambda x: np.full_like(x, np.nan, dtype=float),
            lambda x: np.where(x == 1.0, np.nan, x * (1.0 - x)),
        ],
        ids=["nan-everywhere", "nan-at-1"],
    )
    def test_nan_boundary_value_rejected(self, exact_solution):
        with pytest.raises(ParameterError, match="Dirichlet"):
            Problem1D(
                name="nan",
                exact_solution=exact_solution,
                exact_derivative=lambda x: 1.0 - 2.0 * x,
                source=lambda x: np.full_like(x, 2.0),
            )


class TestSeminorms:
    def test_sine_second_seminorm(self):
        # quadrature oracle for the integral of (u'')^2 = (pi^2 sin(pi x))^2
        oracle, _ = quad(lambda x: (np.pi**2 * np.sin(np.pi * x)) ** 2, 0.0, 1.0)
        value = seminorm_reference(get_problem("sine"), 2)
        assert value == pytest.approx(np.sqrt(oracle), rel=1e-12)
        assert value == pytest.approx(np.pi**2 / np.sqrt(2.0), rel=1e-12)
        assert value == pytest.approx(6.9791, abs=5e-4)

    def test_parabola_seminorms(self):
        poly2 = get_problem("poly2")
        assert seminorm_reference(poly2, 2) == pytest.approx(2.0, rel=1e-12)
        assert seminorm_reference(poly2, 3) == 0.0
        # |u|_1: integral of (1 - 2x)^2 is 1/3
        assert seminorm_reference(poly2, 1) == pytest.approx(
            np.sqrt(1.0 / 3.0), rel=1e-12
        )

    def test_sine_frequency_scaling(self):
        # |u|_s for sin(q pi x) is (q pi)^s / sqrt(2)
        for q, s in [(2, 1), (3, 2), (5, 4)]:
            value = seminorm_reference(get_problem(f"sine{q}"), s)
            assert value == pytest.approx((q * np.pi) ** s / np.sqrt(2.0), rel=1e-12)

    def test_unregistered_problem_rejected(self):
        custom = Problem1D(
            name="custom",
            exact_solution=lambda x: x * (1.0 - x),
            exact_derivative=lambda x: 1.0 - 2.0 * x,
            source=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        )
        with pytest.raises(UnsupportedProblemError):
            seminorm_reference(custom, 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            seminorm_reference(get_problem("sine"), 0)
