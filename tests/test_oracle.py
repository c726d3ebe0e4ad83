"""Geometric, quadrature, and Monte Carlo oracles against the closed form."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from femprob import (
    ElementPair,
    InsufficientDataError,
    ParameterError,
    mc_estimate,
    prob_sigmoid,
    trapezium_ratio,
)
from femprob.oracle import (
    ConditionalIdentityReport,
    McEstimate,
    draw_error_samples,
    conditional_identity_check,
    numeric_area_oracle,
)
from femprob.rng import derive_key, uniforms

REFERENCE = ElementPair.from_constants(1.0, 1, 2.0, 2)  # crossover at 0.5


def area_fraction_oracle(pair, h):
    """Iterated-integral oracle: fraction of [0,a]x[0,b] with x_high <= x_low.

    The inner integral over x_high is exact (min(x_low, a)); the outer one
    is numerical quadrature with the kink declared, accurate to ~1e-10.
    """
    a = pair.high.bound(h)
    b = pair.low.bound(h)
    inner, _ = quad(lambda x: min(x, a), 0.0, b, points=[a] if a < b else None)
    return inner / (a * b)


class TestTrapezium:
    def test_hand_arithmetic_case(self):
        # surfaces at h = 0.25: trapezium 0.0234375 over rectangle 0.03125
        a = REFERENCE.high.bound(0.25)
        b = REFERENCE.low.bound(0.25)
        assert a * (b - a) + 0.5 * a * a == 0.0234375
        assert a * b == 0.03125
        assert trapezium_ratio(REFERENCE, 0.25) == 0.75

    def test_square_rectangle_at_crossover(self):
        assert trapezium_ratio(REFERENCE, REFERENCE.h_star) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_against_quadrature_oracle(self):
        pair = ElementPair.from_constants(1.0, 1, 1.0, 2)
        assert trapezium_ratio(pair, 0.1) == pytest.approx(0.95, abs=1e-12)
        assert area_fraction_oracle(pair, 0.1) == pytest.approx(0.95, abs=1e-6)

    def test_matches_closed_form_at_random_configs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            m = k + int(rng.integers(1, 4))
            pair = ElementPair.from_constants(
                10.0 ** rng.uniform(-3, 3), k, 10.0 ** rng.uniform(-3, 3), m
            )
            h = float(rng.uniform(0.05, 1.0)) * pair.h_star
            assert trapezium_ratio(pair, h) == pytest.approx(
                prob_sigmoid(pair, h), rel=1e-12
            )

    def test_rejects_upper_branch(self):
        with pytest.raises(ParameterError):
            trapezium_ratio(REFERENCE, 0.5001)


class TestMcEstimate:
    def test_half_at_crossover(self):
        est = mc_estimate(REFERENCE, 0.5, 10**6, 42)
        assert 0.4985 <= est.p_hat <= 0.5015

    def test_lower_branch_value(self):
        est = mc_estimate(REFERENCE, 0.25, 10**6, 42)
        assert 0.7487 <= est.p_hat <= 0.7513

    def test_single_trial_is_bernoulli(self):
        for seed in range(5):
            est = mc_estimate(REFERENCE, 0.3, 1, seed)
            assert est.p_hat in (0.0, 1.0)
            assert est.std_error == 0.0

    def test_std_error_consistency(self):
        est = mc_estimate(REFERENCE, 0.35, 10_000, 9)
        expected = np.sqrt(est.p_hat * (1.0 - est.p_hat) / est.n_trials)
        assert abs(est.std_error - expected) <= 1e-15

    def test_deterministic_in_seed(self):
        a = mc_estimate(REFERENCE, 0.4, 50_000, 123)
        b = mc_estimate(REFERENCE, 0.4, 50_000, 123)
        assert a == b

    def test_split_independence(self):
        whole = mc_estimate(REFERENCE, 0.4, 100_000, 7)
        for chunk in (1_000, 33_333, 99_999):
            assert mc_estimate(REFERENCE, 0.4, 100_000, 7, chunk_size=chunk) == whole

    @pytest.mark.parametrize("n_trials", [10**6, 3 * 2**15 + 7])
    @pytest.mark.parametrize("h", [0.3, 0.5, 1.2])
    def test_blocked_count_matches_one_shot_draw(self, n_trials, h):
        # one draw of the whole stream, counted at once, is the reference for
        # the block loop; 3 * 2**15 + 7 leaves a ragged last block
        x_low, x_high = draw_error_samples(REFERENCE, h, n_trials, 2026)
        hits = np.count_nonzero(x_high <= x_low)
        est = mc_estimate(REFERENCE, h, n_trials, 2026)
        assert est.p_hat * n_trials == hits
        assert est.p_hat == hits / n_trials

    def test_pinned_estimate(self):
        # 10**6 trials are 30 blocks of 2**15 and a ragged block of 16,960
        est = mc_estimate(REFERENCE, 0.25, 10**6, 42)
        assert est == McEstimate(p_hat=0.749994, n_trials=10**6, seed=42)

    def test_three_way_agreement_both_branches(self):
        for i, t in enumerate((0.2, 0.7, 1.0, 1.6, 4.0)):
            h = t * REFERENCE.h_star
            p = prob_sigmoid(REFERENCE, h)
            est = mc_estimate(REFERENCE, h, 200_000, 1000 + i)
            band = 3.0 * max(np.sqrt(p * (1 - p) / est.n_trials), 1e-9)
            assert abs(est.p_hat - p) <= band
            assert abs(numeric_area_oracle(REFERENCE, h, 2000) - p) <= 5e-4

    def test_complement_events_partition(self):
        x_low, x_high = draw_error_samples(REFERENCE, 0.3, 50_000, 5)
        wins = np.count_nonzero(x_high <= x_low)
        losses = np.count_nonzero(x_low <= x_high)
        ties = np.count_nonzero(x_low == x_high)
        assert wins + losses - ties == x_low.size

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            mc_estimate(REFERENCE, 0.5, 0, 1)
        with pytest.raises(ParameterError):
            mc_estimate(REFERENCE, -0.5, 10, 1)
        with pytest.raises(ParameterError):
            mc_estimate(REFERENCE, 0.5, 10, 1, chunk_size=0)


class TestDrawSamples:
    def test_samples_respect_intervals(self):
        x_low, x_high = draw_error_samples(REFERENCE, 0.25, 10_000, 3)
        assert np.all((x_low >= 0) & (x_low <= REFERENCE.low.bound(0.25)))
        assert np.all((x_high >= 0) & (x_high <= REFERENCE.high.bound(0.25)))

    @pytest.mark.parametrize("seed, h", [(3, 0.25), (2026, 1.2)])
    def test_low_family_draws_stream_0_and_high_family_stream_1(self, seed, h):
        x_low, x_high = draw_error_samples(REFERENCE, h, 1000, seed)
        want_low = uniforms(derive_key(seed, 0), 1000) * REFERENCE.low.bound(h)
        want_high = uniforms(derive_key(seed, 1), 1000) * REFERENCE.high.bound(h)
        assert x_low.tobytes() == want_low.tobytes()
        assert x_high.tobytes() == want_high.tobytes()


class TestConditionalIdentity:
    def test_reference_configuration(self):
        report = conditional_identity_check(REFERENCE, 0.25, 10**6, 7)
        assert report.identity_residual <= 0.01
        # interval [high bound, low bound] holds half the low-error mass here
        assert report.prob_low_in_band == pytest.approx(0.5, abs=0.0015)
        assert report.prob_high_wins == pytest.approx(0.75, abs=0.0013)
        # analytic conditional: 0.5 / 0.75 = 2/3
        assert report.prob_band_given_win == pytest.approx(2.0 / 3.0, abs=0.002)

    @pytest.mark.parametrize("n_trials", [10**6, 3 * 2**15 + 7])
    def test_blocked_counts_match_one_shot_batches(self, n_trials):
        # the documented construction: batch `tag` draws from derive_key(seed, tag)
        seed, h = 7, 0.25
        top_low, top_high = REFERENCE.low.bound(h), REFERENCE.high.bound(h)

        def batch(tag):
            key = derive_key(seed, tag)
            return (
                uniforms(derive_key(key, 0), n_trials) * top_low,
                uniforms(derive_key(key, 1), n_trials) * top_high,
            )

        x_low, x_high = batch(2)
        prob_win = np.count_nonzero(x_high <= x_low) / n_trials
        x_low, _ = batch(3)
        prob_band = np.count_nonzero((x_low >= top_high) & (x_low <= top_low)) / n_trials
        x_low, x_high = batch(4)
        wins = x_high <= x_low
        in_band = (x_low >= top_high) & (x_low <= top_low)
        prob_given = np.count_nonzero(in_band & wins) / np.count_nonzero(wins)

        report = conditional_identity_check(REFERENCE, h, n_trials, seed)
        assert report.prob_high_wins == prob_win
        assert report.prob_low_in_band == prob_band
        assert report.prob_band_given_win == prob_given
        assert report.identity_residual == abs(prob_win - prob_band / prob_given)

    def test_pinned_report(self):
        report = conditional_identity_check(REFERENCE, 0.25, 10**6, 42)
        assert report == ConditionalIdentityReport(
            prob_high_wins=0.749791,
            prob_low_in_band=0.499882,
            prob_band_given_win=0.6661006798510917,
            identity_residual=0.0006691258052308191,
        )

    def test_deterministic(self):
        a = conditional_identity_check(REFERENCE, 0.25, 10_000, 99)
        b = conditional_identity_check(REFERENCE, 0.25, 10_000, 99)
        assert a == b

    def test_rejects_upper_branch(self):
        with pytest.raises(ParameterError):
            conditional_identity_check(REFERENCE, 0.5, 100, 1)

    def test_insufficient_data_signals(self):
        with pytest.raises(InsufficientDataError, match="winning event never occurred"):
            conditional_identity_check(REFERENCE, 0.45, 1, 0)
        with pytest.raises(InsufficientDataError, match="conditional band event"):
            conditional_identity_check(REFERENCE, 0.4999, 40, 0)


class TestBlockMemory:
    # numpy reports its buffers to tracemalloc.  Each stream draws every block
    # into one 256 KiB buffer, next to one block of counters: the peaks read
    # 0.85 MiB (two streams) and 1.13 MiB (three), and a fresh array per block
    # and stream, which the bounds catch, reads 1.85 and 2.63 MiB
    @pytest.mark.parametrize(
        "check, mib", [(mc_estimate, 1.0), (conditional_identity_check, 2.0)]
    )
    def test_peak_memory_of_a_million_trials(self, check, mib):
        uniforms(0, 1)  # builds the counter table, which lives as long as the process
        tracemalloc.start()
        try:
            check(REFERENCE, 0.25, 10**6, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


class TestNumericArea:
    def test_lower_branch_value(self):
        assert numeric_area_oracle(REFERENCE, 0.25, 2000) == pytest.approx(
            0.75, abs=5e-4
        )

    def test_crossover_half(self):
        assert numeric_area_oracle(REFERENCE, 0.5, 2000) == pytest.approx(0.5, abs=5e-4)

    def test_upper_branch_where_trapezium_cannot_go(self):
        h = 2.0 * REFERENCE.h_star
        assert numeric_area_oracle(REFERENCE, h, 2000) == pytest.approx(
            prob_sigmoid(REFERENCE, h), abs=5e-4
        )

    def test_refinement_converges(self):
        target = prob_sigmoid(REFERENCE, 0.3)
        errors = [
            abs(numeric_area_oracle(REFERENCE, 0.3, n) - target)
            for n in (100, 400, 1600)
        ]
        assert errors[2] < errors[0]
        assert errors[2] <= 1e-3

    def test_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            numeric_area_oracle(REFERENCE, 0.3, 1)
