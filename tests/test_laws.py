"""Closed-form laws: frozen examples, independent oracles, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femprob import ElementPair, ParameterError, prob_sigmoid
from femprob.laws import (
    ErrorLaw,
    crossover_h_star,
    prob_sigmoid_complement,
    prob_two_step,
    tabulate_curve,
)

REFERENCE = ElementPair.from_constants(1.0, 1, 2.0, 2)  # crossover at exactly 0.5


def bisect_crossover(c_low, k, c_high, m, rel_tol=1e-13):
    """Independent root finder for c_low * h**k == c_high * h**m, h > 0."""

    def gap(h):
        return c_low * h**k - c_high * h**m

    lo = 1e-12
    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    assert gap(lo) > 0.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mc_win_frequency(pair, h, n, rng):
    """Monte Carlo oracle on numpy's generator, independent of femprob.rng."""
    x_low = rng.uniform(0.0, pair.low.bound(h), n)
    x_high = rng.uniform(0.0, pair.high.bound(h), n)
    return float(np.mean(x_high <= x_low))


class TestErrorLaw:
    def test_rejects_bad_order(self):
        for order in (0, -1, 1.5, "2", True):
            with pytest.raises(ParameterError):
                ErrorLaw(order, 1.0)

    def test_rejects_bad_constant(self):
        for constant in (0.0, -3.0, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                ErrorLaw(1, constant)

    def test_accepts_integerlike(self):
        assert ErrorLaw(np.int64(3), 2).order == 3

    def test_bound_curve(self):
        law = ErrorLaw(2, 3.0)
        assert law.bound(0.5) == 3.0 * 0.25

    def test_bound_overflow_rejected(self):
        with pytest.raises(ParameterError, match="overflows"):
            ErrorLaw(3, 1.0).bound(1e200)
        with pytest.raises(ParameterError, match="overflows"):
            ErrorLaw(1, 1e300).bound(1e10)


class TestCrossover:
    def test_direct_substitution(self):
        assert crossover_h_star(ErrorLaw(1, 1.0), ErrorLaw(2, 2.0)) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_equal_constants(self):
        assert crossover_h_star(ErrorLaw(1, 1.0), ErrorLaw(3, 1.0)) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_against_bisection_oracle(self):
        # frozen from the bisection oracle for (3, k=2) vs (7, m=5)
        got = crossover_h_star(ErrorLaw(2, 3.0), ErrorLaw(5, 7.0))
        assert got == pytest.approx(0.7539474411291538, rel=1e-12)
        assert got == pytest.approx(bisect_crossover(3.0, 2, 7.0, 5), rel=1e-12)

    def test_curves_intersect_at_result(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            m = k + int(rng.integers(1, 4))
            c_low = float(10.0 ** rng.uniform(-3, 3))
            c_high = float(10.0 ** rng.uniform(-3, 3))
            r = crossover_h_star(ErrorLaw(k, c_low), ErrorLaw(m, c_high))
            assert c_low * r**k == pytest.approx(c_high * r**m, rel=1e-12)

    def test_rejects_bad_order_pair(self):
        with pytest.raises(ParameterError):
            crossover_h_star(ErrorLaw(2, 1.0), ErrorLaw(2, 1.0))
        with pytest.raises(ParameterError):
            crossover_h_star(ErrorLaw(3, 1.0), ErrorLaw(2, 1.0))

    @pytest.mark.parametrize("c_low, c_high", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_rejects_crossover_outside_the_floats(self, c_low, c_high):
        # ln(1e300 / 1e-300) = 1381.6 overflows exp; its negative underflows to 0
        with pytest.raises(ParameterError, match="crossover"):
            crossover_h_star(ErrorLaw(1, c_low), ErrorLaw(2, c_high))
        with pytest.raises(ParameterError, match="crossover"):
            ElementPair.from_constants(c_low, 1, c_high, 2)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, scale):
        base = ElementPair.from_constants(1.3, 1, 4.2, 3)
        scaled = ElementPair.from_constants(1.3 * scale, 1, 4.2 * scale, 3)
        assert scaled.h_star == pytest.approx(base.h_star, rel=1e-12)
        for t in (0.2, 0.9, 1.7):
            h = t * base.h_star
            assert prob_sigmoid(scaled, h) == pytest.approx(
                prob_sigmoid(base, h), abs=1e-12
            )

    def test_pair_caches_recomputable_h_star(self):
        pair = ElementPair.from_constants(3.0, 2, 7.0, 5)
        assert pair.h_star == pytest.approx(
            crossover_h_star(pair.low, pair.high), rel=1e-14
        )


class TestTwoStep:
    def test_below_crossover(self):
        assert prob_two_step(REFERENCE, 0.25) == 1.0

    def test_above_crossover(self):
        assert prob_two_step(REFERENCE, 0.75) == 0.0

    def test_boundary_convention(self):
        assert prob_two_step(REFERENCE, 0.5) == 0.5

    def test_rejects_nonpositive_h(self):
        for h in (0.0, -1.0):
            with pytest.raises(ParameterError):
                prob_two_step(REFERENCE, h)

    def test_consistent_with_sigmoid(self):
        for t in np.geomspace(0.01, 100, 41):
            h = t * REFERENCE.h_star
            smooth = prob_sigmoid(REFERENCE, h)
            step = prob_two_step(REFERENCE, h)
            if smooth > 0.5:
                assert step == 1.0
            elif smooth < 0.5:
                assert step == 0.0


class TestSigmoid:
    def test_half_at_crossover(self):
        for pair in (REFERENCE, ElementPair.from_constants(3.0, 2, 7.0, 5)):
            assert prob_sigmoid(pair, pair.h_star) == pytest.approx(0.5, abs=1e-12)

    def test_low_branch_against_mc_oracle(self):
        # analytic 0.75; oracle agrees within 3 binomial sigma at n = 1e6
        assert prob_sigmoid(REFERENCE, 0.25) == 0.75
        freq = mc_win_frequency(REFERENCE, 0.25, 10**6, np.random.default_rng(11))
        assert abs(freq - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / 10**6)

    def test_high_branch_against_mc_oracle(self):
        assert prob_sigmoid(REFERENCE, 1.0) == 0.25
        freq = mc_win_frequency(REFERENCE, 1.0, 10**6, np.random.default_rng(12))
        assert abs(freq - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 10**6)

    def test_branch_agreement_at_crossover(self):
        pair = ElementPair.from_constants(2.5, 1, 0.7, 4)
        h = pair.h_star
        left = 1.0 - 0.5 * (h / pair.h_star) ** pair.order_gap
        right = 0.5 * (pair.h_star / h) ** pair.order_gap
        assert abs(left - right) <= 1e-12

    def test_range_split(self):
        for t in np.geomspace(0.01, 0.999, 30):
            assert 0.5 < prob_sigmoid(REFERENCE, t * REFERENCE.h_star) < 1.0
        for t in np.geomspace(1.001, 100, 30):
            assert 0.0 < prob_sigmoid(REFERENCE, t * REFERENCE.h_star) < 0.5

    def test_strict_monotonicity(self):
        pair = ElementPair.from_constants(1.7, 2, 0.9, 5)
        grid = np.geomspace(pair.h_star / 50, pair.h_star * 50, 500)
        values = [prob_sigmoid(pair, h) for h in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishing_h_limit(self):
        # complement halves by 10**order_gap per decade of mesh refinement
        pair = ElementPair.from_constants(4.0, 1, 9.0, 3)
        for d in range(1, 7):
            h = pair.h_star * 10.0**-d
            expected = 0.5 * 10.0 ** (-d * pair.order_gap)
            assert prob_sigmoid_complement(pair, h) == pytest.approx(
                expected, rel=1e-10
            )

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_reflection_symmetry(self, t):
        pair = ElementPair.from_constants(2.0, 1, 5.0, 3)
        total = prob_sigmoid(pair, t * pair.h_star) + prob_sigmoid(pair, pair.h_star / t)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_complement_is_one_minus_probability(self):
        pair = ElementPair.from_constants(1.0, 1, 2.0, 2)
        for t in (0.3, 0.9, 1.0, 1.4, 7.0):
            h = t * pair.h_star
            assert prob_sigmoid(pair, h) + prob_sigmoid_complement(pair, h) == (
                pytest.approx(1.0, abs=1e-15)
            )

    def test_extremes_stay_in_unit_interval(self):
        pair = ElementPair.from_constants(1.0, 1, 3.0, 3)
        assert prob_sigmoid(pair, 1e300) == 0.0  # tail underflows cleanly
        assert prob_sigmoid(pair, 1e-300) == 1.0  # complement below resolution
        for h in (1e-300, 1e-5, 1.0, 1e5, 1e300):
            assert 0.0 <= prob_sigmoid(pair, h) <= 1.0

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ParameterError):
            prob_sigmoid(REFERENCE, 0.0)
        with pytest.raises(ParameterError):
            prob_sigmoid_complement(REFERENCE, -2.0)


class TestTabulate:
    def test_single_point_at_crossover(self):
        assert tabulate_curve(REFERENCE, [REFERENCE.h_star], prob_sigmoid) == (0.5,)

    def test_two_step_branch_values(self):
        grid = [REFERENCE.h_star / 2, REFERENCE.h_star]
        assert tabulate_curve(REFERENCE, grid, prob_two_step) == (1.0, 0.5)

    def test_log_grid_strictly_decreasing(self):
        p = tabulate_curve(REFERENCE, np.geomspace(0.01, 10.0, 100), prob_sigmoid)
        assert all(a > b for a, b in zip(p, p[1:]))

    def test_rejects_bad_grids(self):
        with pytest.raises(ParameterError):
            tabulate_curve(REFERENCE, [], prob_sigmoid)
        with pytest.raises(ParameterError):
            tabulate_curve(REFERENCE, [0.5, 0.25], prob_sigmoid)
        with pytest.raises(ParameterError):
            tabulate_curve(REFERENCE, [0.0, 0.5], prob_sigmoid)
