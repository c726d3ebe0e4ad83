"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import contextlib
import subprocess
import sys

import numpy as np
import pytest

from femprob import (
    ElementPair,
    fit_constant,
    get_problem,
    h1_error,
    assemble_solve,
    build_mesh,
    convergence_study,
    mc_estimate,
    prob_sigmoid,
    trapezium_ratio,
)
from femprob.laws import prob_sigmoid_complement
from femprob.oracle import conditional_identity_check, numeric_area_oracle
from femprob.study import empirical_superiority, estimate_half_crossing, superiority_sweep
from femprob.rng import derive_key

BASE_SEED = 20260810


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def random_pair(rng, max_low=5, max_gap=3):
    k = int(rng.integers(1, max_low))
    m = k + int(rng.integers(1, max_gap + 1))
    return ElementPair.from_constants(
        float(10.0 ** rng.uniform(-3, 3)), k, float(10.0 ** rng.uniform(-3, 3)), m
    )


def test_criterion_1_sigmoid_vs_monte_carlo():
    """Closed form within 3 binomial sigma of MC at one million trials."""
    families = [
        ((1, 2), (1.0, 2.0)),
        ((1, 3), (3.0, 7.0)),
        ((2, 3), (2.5, 0.4)),
        ((2, 5), (50.0, 12.0)),
    ]
    ratios = (0.1, 0.5, 0.9, 1.0, 1.5, 10.0)
    n = 10**6
    with criterion(1, "sigmoid law vs Monte Carlo, 24 configurations"):
        for fi, ((k, m), (c_low, c_high)) in enumerate(families):
            pair = ElementPair.from_constants(c_low, k, c_high, m)
            for ri, t in enumerate(ratios):
                h = t * pair.h_star
                analytic = prob_sigmoid(pair, h)
                estimate = mc_estimate(pair, h, n, derive_key(BASE_SEED, fi, ri))
                band = 3.0 * np.sqrt(analytic * (1.0 - analytic) / n)
                assert abs(estimate.p_hat - analytic) <= band, (
                    f"(k={k}, m={m}, t={t}): {estimate.p_hat} vs {analytic}"
                )


def test_criterion_2_trapezium_and_midpoint_geometry():
    """Exact trapezium geometry and midpoint quadrature agree with the law."""
    rng = np.random.default_rng(BASE_SEED)
    with criterion(2, "trapezium ratio and midpoint oracle agreement"):
        for _ in range(100):
            pair = random_pair(rng)
            h = float(rng.uniform(0.02, 1.0)) * pair.h_star
            assert trapezium_ratio(pair, h) == pytest.approx(
                prob_sigmoid(pair, h), rel=1e-12
            )
        for _ in range(20):
            pair = random_pair(rng)
            for t in (0.3, 0.9, 1.4, 3.0):  # both sides of the crossover
                h = t * pair.h_star
                assert numeric_area_oracle(pair, h, 2000) == pytest.approx(
                    prob_sigmoid(pair, h), abs=5e-4
                )


def test_criterion_3_exact_law_properties():
    """Crossover value, reflection symmetry, monotonicity, vanishing-h limit."""
    pairs = [
        ElementPair.from_constants(1.0, 1, 2.0, 2),
        ElementPair.from_constants(3.0, 1, 7.0, 3),
        ElementPair.from_constants(2.5, 2, 0.4, 3),
        ElementPair.from_constants(50.0, 2, 12.0, 5),
    ]
    rng = np.random.default_rng(BASE_SEED + 3)
    with criterion(3, "exact sigmoid-law properties"):
        for pair in pairs:
            assert prob_sigmoid(pair, pair.h_star) == pytest.approx(0.5, abs=1e-12)
            for t in rng.uniform(1e-4, 1.0, size=50):
                total = prob_sigmoid(pair, t * pair.h_star) + prob_sigmoid(
                    pair, pair.h_star / t
                )
                assert total == pytest.approx(1.0, abs=1e-12)
            grid = np.geomspace(pair.h_star * 1e-3, pair.h_star * 1e3, 1000)
            values = [prob_sigmoid(pair, h) for h in grid]
            assert all(a > b for a, b in zip(values, values[1:]))
            for d in range(1, 7):
                expected = 0.5 * 10.0 ** (-d * pair.order_gap)
                assert prob_sigmoid_complement(
                    pair, pair.h_star * 10.0**-d
                ) == pytest.approx(expected, rel=1e-10)


def test_criterion_4_conditional_identity():
    """P{A} = P{B}/P{B|A} empirically, with n**-1/2 residual decay."""
    pair = ElementPair.from_constants(1.0, 1, 2.0, 2)
    with criterion(4, "conditional-probability identity and residual decay"):
        report = conditional_identity_check(pair, 0.25, 10**6, derive_key(BASE_SEED, 4))
        assert report.identity_residual <= 0.01
        n_values = [10_000, 40_000, 160_000, 640_000, 1_000_000]
        rms = []
        for n in n_values:
            residuals = [
                conditional_identity_check(pair, 0.25, n, derive_key(505, s)).identity_residual
                for s in range(10)
            ]
            rms.append(float(np.sqrt(np.mean(np.square(residuals)))))
        slope = float(np.polyfit(np.log(n_values), np.log(rms), 1)[0])
        assert -0.65 <= slope <= -0.35, f"decay exponent {slope}"


def test_criterion_5_convergence_rates():
    """Fitted H1 rates inside [k - 0.15, k + 0.15]; contained cases exact."""
    sine = get_problem("sine")
    n_list = [8, 16, 32, 64, 128, 256, 512]
    with criterion(5, "a priori convergence rates and containment"):
        for k in (1, 2, 3):
            records = convergence_study(sine, k, n_list, 0.0, 1, seed=BASE_SEED)
            fitted = fit_constant(records, k)
            assert abs(fitted.rate - k) <= 0.15, f"order {k}: rate {fitted.rate}"
        for problem_name, order in [("poly2", 2), ("poly3", 3), ("poly4", 4), ("poly2", 4)]:
            problem = get_problem(problem_name)
            mesh = build_mesh(9, 0.3, seed=BASE_SEED + order)
            error, _ = h1_error(assemble_solve(mesh, order, problem), problem)
            assert error <= 1e-9, f"{problem_name}/P{order}: {error}"


def test_criterion_6_crossover_end_to_end():
    """0.5-crossing near the crossover, synthetically and on real errors."""
    with criterion(6, "crossover phenomenon, synthetic and FEM"):
        # synthetic: uniform-error model with known constants
        pair = ElementPair.from_constants(1.0, 1, 2.0, 2)
        grid = np.geomspace(0.1, 2.0, 25)
        p_hats = [
            mc_estimate(pair, float(h), 40_000, derive_key(606, i)).p_hat
            for i, h in enumerate(grid)
        ]
        crossing = estimate_half_crossing(grid, p_hats)
        log_step = float(np.log(grid[1] / grid[0]))
        assert crossing is not None
        assert abs(np.log(crossing / pair.h_star)) <= log_step

        # real errors: oscillatory solution, jitter 0.3, fitted constants
        problem = get_problem("sine24")
        n_list = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96]
        points, records = superiority_sweep(problem, 1, 2, n_list, 200, 0.3, 2026)
        fitted_low = fit_constant(records, 1, fix_rate=True)
        fitted_high = fit_constant(records, 2, fix_rate=True)
        fitted = ElementPair.from_constants(
            fitted_low.constant, 1, fitted_high.constant, 2
        )
        h_means = [p.h_mean for p in points]
        p_values = [p.estimate.p_hat for p in points]
        fem_crossing = estimate_half_crossing(h_means, p_values)
        assert fem_crossing is not None, "superiority frequency never crossed 1/2"
        ratio = max(fem_crossing / fitted.h_star, fitted.h_star / fem_crossing)
        assert ratio <= 2.0, f"crossing {fem_crossing} vs fitted h* {fitted.h_star}"
        assert p_values[-1] >= 0.95

        # the uniform-error model is quantitatively off in the transition
        # region; report the observed gap rather than asserting on it
        gap = max(
            abs(p.estimate.p_hat - prob_sigmoid(fitted, p.h_mean)) for p in points
        )
        print(
            f"  [criterion 6 note] fitted h* = {fitted.h_star:.4f}, empirical "
            f"crossing = {fem_crossing:.4f} (ratio {ratio:.2f}); max |observed - "
            f"model| over the sweep = {gap:.3f} (transition-region gap, expected)"
        )


def _cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "femprob.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_criterion_7_byte_identical_reruns(tmp_path):
    """Same flags and seed give byte-identical files; splits are invisible."""
    commands = {
        "law": ["law", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
                "--h-min", 0.05, "--h-max", 2, "--points", 64],
        "mc": ["mc", "--ck", 3, "--k", 1, "--cm", 7, "--m", 3,
               "--h-min", 0.2, "--h-max", 1.2, "--points", 6,
               "--trials", 30000, "--seed", 11],
        "fem": ["fem", "--problem", "sine3", "--orders", "1,2",
                "--n-list", "4,8,16,32", "--jitter", 0.3, "--trials", 2,
                "--seed", 13],
        "compare": ["compare", "--problem", "sine8", "--order-low", 1,
                    "--order-high", 2, "--n-list", "2,4,8,16", "--trials", 12,
                    "--jitter", 0.25, "--seed", 17],
    }
    with criterion(7, "byte-identical reruns and split invariance"):
        for name, args in commands.items():
            first = tmp_path / f"{name}_1.csv"
            second = tmp_path / f"{name}_2.csv"
            _cli(*args, "--out", first)
            _cli(*args, "--out", second)
            assert first.read_bytes() == second.read_bytes(), name
        # trial-splitting (the parallel decomposition) cannot change results
        pair = ElementPair.from_constants(1.0, 1, 2.0, 2)
        whole = mc_estimate(pair, 0.3, 100_000, 21)
        for chunk in (1_024, 7_777, 50_000):
            # blocks of `chunk` trials of each of the two streams
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("femprob.rng._BLOCK", 2 * chunk)
                assert mc_estimate(pair, 0.3, 100_000, 21) == whole
        a = empirical_superiority(get_problem("sine"), 1, 2, 8, 10, 0.3, 23)
        b = empirical_superiority(get_problem("sine"), 1, 2, 8, 10, 0.3, 23)
        assert a == b
