"""Convergence studies, constant fits, and superiority experiments."""

import dataclasses
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femprob import fem, rng, study
from femprob.mesh import Mesh1D
from femprob.rng import derive_key
from femprob import (
    InsufficientDataError,
    ParameterError,
    Problem1D,
    convergence_study,
    assemble_solve,
    build_mesh,
    fit_constant,
    get_problem,
    h1_error,
)
from femprob.study import (
    ConvergenceRecord,
    empirical_superiority,
    estimate_half_crossing,
    superiority_sweep,
)

SINE = get_problem("sine")
POLY2 = get_problem("poly2")


def synthetic_records(constant, rate, h_values, order):
    return [
        ConvergenceRecord(
            order=order,
            n_elements=int(round(1 / h)),
            h_max=h,
            error_h1=constant * h**rate,
            error_h1_semi=0.9 * constant * h**rate,
            seed=0,
        )
        for h in h_values
    ]


class TestConvergenceStudy:
    def test_record_bookkeeping(self):
        records = convergence_study(SINE, 1, [4, 8, 16], 0.2, 3, seed=5)
        assert len(records) == 9
        assert {r.n_elements for r in records} == {4, 8, 16}
        assert all(r.order == 1 for r in records)

    def test_zero_jitter_classical_table(self):
        records = convergence_study(SINE, 1, [8, 16, 32], 0.0, 1, seed=5)
        assert [r.h_max for r in records] == [0.125, 0.0625, 0.03125]
        errors = [r.error_h1 for r in records]
        assert errors[0] > errors[1] > errors[2]

    def test_errors_decrease_for_smooth_problem(self):
        records = convergence_study(SINE, 2, [4, 8, 16, 32, 64], 0.0, 1, seed=0)
        errors = [r.error_h1 for r in records]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_deterministic_in_seed(self):
        a = convergence_study(SINE, 1, [4, 8], 0.3, 2, seed=11)
        b = convergence_study(SINE, 1, [4, 8], 0.3, 2, seed=11)
        assert a == b

    def test_rejects_bad_n_list(self):
        with pytest.raises(ParameterError):
            convergence_study(SINE, 1, [], 0.0, 1, seed=0)
        with pytest.raises(ParameterError):
            convergence_study(SINE, 1, [8, 4], 0.0, 1, seed=0)


class TestFitConstant:
    def test_noiseless_power_law_recovered(self):
        records = synthetic_records(2.5, 3.0, [0.2, 0.1, 0.05, 0.025], order=3)
        fitted = fit_constant(records, 3)
        assert fitted.constant == pytest.approx(2.5, abs=1e-10)
        assert fitted.rate == pytest.approx(3.0, abs=1e-10)
        assert fitted.residual <= 1e-12

    def test_first_order_rate_window(self):
        records = convergence_study(
            SINE, 1, [8, 16, 32, 64, 128, 256, 512, 1024], 0.0, 1, seed=0
        )
        fitted = fit_constant(records, 1)
        assert 0.9 <= fitted.rate <= 1.1
        assert fitted.rate_consistent()

    def test_pinned_rate_residual_dominates_free(self):
        records = convergence_study(SINE, 2, [8, 16, 32, 64], 0.1, 2, seed=3)
        free = fit_constant(records, 2, fix_rate=False)
        pinned = fit_constant(records, 2, fix_rate=True)
        assert pinned.rate == 2.0
        assert pinned.residual >= free.residual - 1e-15

    def test_filters_by_order(self):
        mixed = synthetic_records(2.0, 1.0, [0.2, 0.1, 0.05], order=1)
        mixed += synthetic_records(5.0, 2.0, [0.2, 0.1, 0.05], order=2)
        assert fit_constant(mixed, 1).constant == pytest.approx(2.0, abs=1e-10)
        assert fit_constant(mixed, 2).constant == pytest.approx(5.0, abs=1e-10)

    def test_needs_three_distinct_sizes(self):
        records = synthetic_records(1.0, 1.0, [0.1, 0.05], order=1)
        with pytest.raises(InsufficientDataError):
            fit_constant(records, 1)

    def test_rounding_floor_tail_is_dropped(self):
        records = synthetic_records(2.5, 3.0, [0.2, 0.1, 0.05], order=3)
        records += [
            ConvergenceRecord(3, n, 1.0 / n, 3e-13, 2e-13, 0) for n in (40, 80)
        ]
        fitted = fit_constant(records, 3)
        assert fitted.rate == pytest.approx(3.0, abs=1e-10)
        assert fitted.constant == pytest.approx(2.5, abs=1e-10)

    def test_refuses_when_floor_leaves_two_sizes(self):
        records = synthetic_records(2.5, 3.0, [0.2, 0.1], order=3)
        records += [ConvergenceRecord(3, 20, 0.05, 3e-13, 2e-13, 0)]
        with pytest.raises(InsufficientDataError, match="1 of 3 records"):
            fit_constant(records, 3)

    def test_refuses_machine_noise_errors(self):
        records = convergence_study(POLY2, 2, [4, 8, 16, 32], 0.0, 1, seed=0)
        with pytest.raises(InsufficientDataError, match="dynamic range"):
            fit_constant(records, 2)

    @pytest.mark.parametrize(
        "h_max, error_h1, field",
        [
            (0.0, 1e-3, "h_max"),  # unchecked: constant=inf, residual=nan
            (-1.0, 1e-3, "h_max"),  # unchecked: LinAlgError in the free-rate fit
            (math.nan, 1e-3, "h_max"),
            (math.inf, 1e-3, "h_max"),
            (0.01, math.inf, "error_h1"),  # unchecked: constant=nan
            # unchecked: fitted from the complex numbers, with a warning only
            (0.01, np.complex128(1e-3 + 1j), "error_h1"),
            (np.complex128(0.01 + 1j), 1e-3, "h_max"),
        ],
    )
    @pytest.mark.parametrize("fix_rate", [True, False])
    def test_refuses_records_it_cannot_fit(self, h_max, error_h1, field, fix_rate):
        records = synthetic_records(2.0, 1.0, [0.2, 0.1, 0.05], order=1)
        records.append(ConvergenceRecord(1, 4, h_max, error_h1, 1e-4, 0))
        with pytest.raises(ParameterError, match=f"^{field} of every order-1 record"):
            fit_constant(records, 1, fix_rate=fix_rate)

    @pytest.mark.parametrize(
        "h_values, distinct", [([0.1, 0.1, 0.05, 0.05], 2), ([0.1], 1), ([], 0)]
    )
    def test_counts_distinct_mesh_sizes(self, h_values, distinct):
        records = synthetic_records(1.0, 1.0, h_values, order=1)
        with pytest.raises(InsufficientDataError, match=f", got {distinct};"):
            fit_constant(records, 1)

    def test_jittered_meshes_of_one_count_are_one_size(self):
        # five jittered 64-element meshes differ in h_max but measure no rate
        records = convergence_study(SINE, 1, [64], 0.3, 5, 42)
        assert len({r.h_max for r in records}) == 5
        with pytest.raises(InsufficientDataError, match=", got 1;"):
            fit_constant(records, 1)

    def test_fit_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on its first call, 9-15 ms of a fresh
        # fem or compare process
        code = (
            "import sys; from femprob.study import ConvergenceRecord, fit_constant;"
            " fit_constant([ConvergenceRecord(1, n, 1 / n, 1 / n, 0.5 / n, 0)"
            " for n in (4, 8, 8, 16)], 1); print('numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_records_of_other_orders_are_not_checked(self):
        records = synthetic_records(2.0, 1.0, [0.2, 0.1, 0.05], order=1)
        records.append(ConvergenceRecord(2, 4, -1.0, 1e-3, 1e-4, 0))
        assert fit_constant(records, 1).constant == pytest.approx(2.0, abs=1e-10)


class TestEmpiricalSuperiority:
    def test_fine_mesh_high_order_dominates(self):
        estimate = empirical_superiority(SINE, 1, 2, 32, trials=40, jitter=0.3, seed=4)
        assert estimate.p_hat >= 0.95

    def test_zero_jitter_is_degenerate(self):
        estimate = empirical_superiority(SINE, 1, 2, 8, trials=25, jitter=0.0, seed=4)
        assert estimate.p_hat in (0.0, 1.0)

    def test_deterministic(self):
        a = empirical_superiority(SINE, 1, 3, 8, trials=10, jitter=0.2, seed=8)
        b = empirical_superiority(SINE, 1, 3, 8, trials=10, jitter=0.2, seed=8)
        assert a == b

    def test_rejects_bad_orders(self):
        with pytest.raises(ParameterError):
            empirical_superiority(SINE, 2, 2, 8, trials=4, jitter=0.1, seed=0)

    def test_order_above_the_highest_is_refused_up_front(self):
        # `fem`'s order ceiling, named by the argument, before any mesh is solved
        with pytest.raises(ParameterError, match=r"^order_high must lie in \[1, 10\], got 11$"):
            superiority_sweep(SINE, 1, 11, [4], 2, 0.3, 1)

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ParameterError, match="trials"):
            empirical_superiority(SINE, 1, 2, 8, trials=0, jitter=0.1, seed=0)
        with pytest.raises(ParameterError, match="trials"):
            superiority_sweep(SINE, 1, 2, [4, 8], trials=0, jitter=0.1, seed=0)

    def test_sweep_shapes(self):
        points, records = superiority_sweep(
            SINE, 1, 2, [4, 8], trials=6, jitter=0.2, seed=9
        )
        assert [p.n_elements for p in points] == [4, 8]
        assert len(records) == 2 * 6 * 2
        assert all(0.0 <= p.estimate.p_hat <= 1.0 for p in points)
        assert all(p.h_mean > 0 for p in points)


def _bits(records):
    """Every field of every record, each float by its exact hex form."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in records
    ]


def per_trial_sweep(problem, order_low, order_high, n_list, trials, jitter, seed):
    """Reference: the scalar key, mesh and solve chain of every trial, one by one."""
    records, wins = [], []
    for n in n_list:
        wins.append(0)
        for trial in range(trials):
            pair = []
            for role, order in enumerate((order_low, order_high)):
                trial_seed = derive_key(seed, study._STREAM_SUPERIORITY, n, trial, role)
                mesh = build_mesh(n, jitter, trial_seed)
                full, semi = h1_error(assemble_solve(mesh, order, problem), problem)
                pair.append(ConvergenceRecord(order, n, mesh.h_max, full, semi, trial_seed))
            wins[-1] += pair[1].error_h1 <= pair[0].error_h1
            records.extend(pair)
    return records, wins


class TestSweepArrays:
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("block", [None, 4])
    def test_records_equal_the_per_trial_chain(self, jitter, block, monkeypatch):
        n_list, trials = [1, 2, 97], 9
        want_records, want_wins = per_trial_sweep(SINE, 1, 3, n_list, trials, jitter, 2026)
        shapes = []
        if block is not None:
            # at most 4 draws per block of `uniforms`: blocks of 4, 4 and 1
            # meshes at n = 2, and 24 blocks of 4 draws per mesh at n = 97,
            # where a mesh alone has 96 draws; the key derivations are 0-d
            # or 1-D, the counter blocks of `uniforms` 2-D
            monkeypatch.setattr(rng, "_BLOCK", block)
            finalize = rng._finalize

            def counted(z, scratch=None):
                if z.ndim == 2:
                    shapes.append(z.shape)
                return finalize(z, scratch)

            monkeypatch.setattr(rng, "_finalize", counted)
        points, records = superiority_sweep(SINE, 1, 3, n_list, trials, jitter, seed=2026)
        assert records == want_records
        assert [p.estimate.p_hat for p in points] == [w / trials for w in want_wins]
        if block is not None and jitter > 0.0:
            assert shapes == [(4, 1), (4, 1), (1, 1)] * 2 + [(1, 4)] * 24 * 2 * trials

    @pytest.mark.parametrize("n_list, jitter", [([0, 4], 0.3), ([4], 0.5), ([4], -0.1)])
    def test_bad_mesh_parameters_rejected(self, n_list, jitter):
        with pytest.raises(ParameterError):
            superiority_sweep(SINE, 1, 2, n_list, 3, jitter, seed=1)

    def test_meshes_are_checked_per_family_not_per_trial(self, monkeypatch):
        calls = []
        post_init = Mesh1D.__post_init__

        def counted(mesh):
            calls.append(mesh.seed)
            post_init(mesh)

        monkeypatch.setattr(Mesh1D, "__post_init__", counted)
        superiority_sweep(SINE, 1, 2, [4, 8], 5, 0.3, seed=3)
        assert calls == []
        build_mesh(4, 0.3, seed=3)  # the constructor is still counted
        assert calls == [3]

    # order pairs from 1..10, up to three element counts of at most 40; with
    # 7 values per draw block, patched in `rng` alone, every family's meshes
    # are drawn in several blocks of rows, and every mesh of more than 7
    # draws in several blocks of one row
    @pytest.mark.parametrize("block", [None, 7])
    @given(
        st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True).map(sorted),
        st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted),
        st.integers(1, 12),
        st.floats(0.0, 0.5, exclude_max=True),
        st.integers(-(2**70), 2**70),
    )
    @settings(max_examples=25, deadline=None)
    def test_records_equal_the_public_chain(self, block, orders, n_list, trials, jitter, seed):
        want_records, want_wins = per_trial_sweep(SINE24, *orders, n_list, trials, jitter, seed)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(rng, "_BLOCK", block)
            points, records = superiority_sweep(SINE24, *orders, n_list, trials, jitter, seed)
        assert _bits(records) == _bits(want_records)
        assert [p.estimate.p_hat for p in points] == [w / trials for w in want_wins]


def per_trial_study(problem, order, n_list, jitter, trials, seed):
    """Reference: `convergence_study` one trial at a time through `h1_error`."""
    records = []
    for n in n_list:
        for trial in range(trials):
            trial_seed = derive_key(seed, study._STREAM_STUDY, n, trial)
            mesh = build_mesh(n, jitter, trial_seed)
            full, semi = h1_error(assemble_solve(mesh, order, problem), problem)
            records.append(ConvergenceRecord(order, n, mesh.h_max, full, semi, trial_seed))
    return records


def recording(problem):
    """`problem` whose exact solution logs the size of every array it is given."""
    sizes = []

    def exact_solution(x):
        sizes.append(np.size(x))
        return problem.exact_solution(x)

    wrapped = Problem1D(
        name=problem.name,
        exact_solution=exact_solution,
        exact_derivative=problem.exact_derivative,
        source=problem.source,
    )
    sizes.clear()  # forget the boundary checks of construction
    return wrapped, sizes


SINE24 = get_problem("sine24")


class TestErrorBlocks:
    """The H1 errors of a block of trials come from one kernel call; every
    record equals the per-trial build_mesh -> assemble_solve -> h1_error chain."""

    # at the default block size, 57 trials leave the last block of every
    # n = 96 family part-filled (56, 48, 42, 31 and 22 trials per block at
    # k = 1, 2, 3, 6 and 10); a 700-point block splits the n = 96, k >= 3
    # meshes into element blocks and holds 1 to 116 whole meshes elsewhere
    @pytest.mark.parametrize("orders", [(1, 2), (3, 6), (1, 10)])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("block_points, trials", [(None, 57), (700, 11)])
    def test_sweep_equals_the_per_trial_chain(
        self, orders, jitter, block_points, trials, monkeypatch
    ):
        if block_points is not None:
            monkeypatch.setattr(fem, "_BLOCK", block_points)
        n_list = [1, 2, 3, 5, 17, 96]
        want_records, want_wins = per_trial_sweep(SINE24, *orders, n_list, trials, jitter, 7)
        points, records = superiority_sweep(SINE24, *orders, n_list, trials, jitter, seed=7)
        assert records == want_records
        assert [p.estimate.p_hat for p in points] == [w / trials for w in want_wins]

    @pytest.mark.parametrize("block_points", [None, 5000])
    def test_trial_spanning_several_blocks(self, block_points, monkeypatch):
        # n = 2200 at k = 10 is 33,000 error points, two element blocks
        # of the default size and seven of 5000 points
        if block_points is not None:
            monkeypatch.setattr(fem, "_BLOCK", block_points)
        want_records, want_wins = per_trial_sweep(SINE24, 1, 10, [2200], 3, 0.3, 2026)
        points, records = superiority_sweep(SINE24, 1, 10, [2200], 3, 0.3, seed=2026)
        assert records == want_records
        assert points[0].estimate.p_hat == want_wins[0] / 3

    @pytest.mark.parametrize("order", [1, 6, 10])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("block_points", [None, 700])
    def test_convergence_study_equals_the_per_trial_chain(
        self, order, jitter, block_points, monkeypatch
    ):
        if block_points is not None:
            monkeypatch.setattr(fem, "_BLOCK", block_points)
        n_list = [1, 2, 3, 5, 17, 96]
        want = per_trial_study(SINE24, order, n_list, jitter, 9, 5)
        assert convergence_study(SINE24, order, n_list, jitter, 9, seed=5) == want

    def test_lone_mesh_block_adds_no_memory(self):
        # a mesh too large to share a block goes to `h1_errors` as views of
        # its solution: stacked copies would add 2.5 MiB at n = 65536, k = 10
        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def direct():
            mesh = build_mesh(65536, 0.3, derive_key(5, study._STREAM_STUDY, 65536, 0))
            h1_error(assemble_solve(mesh, 10, SINE24), SINE24)

        study_peak = peak(lambda: convergence_study(SINE24, 10, [65536], 0.3, 1, seed=5))
        assert study_peak <= peak(direct) + 2**20

    @pytest.mark.parametrize("block_points", [None, 700])
    def test_exact_solution_called_once_per_block(self, block_points, monkeypatch):
        if block_points is not None:
            monkeypatch.setattr(fem, "_BLOCK", block_points)
        n_list, trials, orders = [2, 17, 96], 60, (1, 3)
        problem, sizes = recording(SINE24)
        per_trial_sweep(problem, *orders, n_list, trials, 0.3, 9)
        chain = list(sizes)
        sizes.clear()
        superiority_sweep(problem, *orders, n_list, trials, 0.3, seed=9)
        assert sum(sizes) == sum(chain)
        assert len(chain) >= 2 * len(n_list) * trials  # one call or more per trial
        blocks = 0
        for n in n_list:
            for order in orders:
                points = n * (order + fem._ERROR_EXTRA_POINTS)
                if points <= fem._BLOCK:
                    blocks += -(-trials // (fem._BLOCK // points))
                else:
                    per_block = fem._BLOCK // (order + fem._ERROR_EXTRA_POINTS)
                    blocks += trials * -(-n // per_block)
        assert len(sizes) <= blocks
        assert len(sizes) < len(chain)


class TestHalfCrossing:
    def test_exact_recovery_on_clean_sigmoid(self):
        h = np.geomspace(0.01, 10.0, 60)
        p = 1.0 / (1.0 + (h / 0.7) ** 2)  # crosses 1/2 at exactly 0.7
        crossing = estimate_half_crossing(h, p)
        assert crossing == pytest.approx(0.7, rel=0.05)

    def test_none_without_crossing(self):
        h = [0.1, 0.2, 0.4]
        assert estimate_half_crossing(h, [0.9, 0.8, 0.7]) is None

    def test_multiple_crossings_give_geometric_mean(self):
        h = [0.1, 0.2, 0.4, 0.8]
        p = [0.6, 0.4, 0.6, 0.4]  # noisy transition region
        crossing = estimate_half_crossing(h, p)
        assert 0.1 < crossing < 0.8

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            estimate_half_crossing([0.1, 0.2], [0.5])

    def test_empty_input(self):
        with pytest.raises(ParameterError):
            estimate_half_crossing([], [])

    @pytest.mark.parametrize(
        "h_values, p_values",
        [
            ([[0.1, 0.2]], [[0.9, 0.1]]),  # unchecked: IndexError
            ([[0.1, 0.2], [0.3, 0.4]], [[0.9, 0.8], [0.2, 0.1]]),  # unchecked: TypeError
            (0.1, 0.9),
        ],
        ids=["1x2", "2x2", "scalar"],
    )
    def test_input_must_be_1d(self, h_values, p_values):
        with pytest.raises(ParameterError, match="^h_values must be a 1-D array of numbers, got "):
            estimate_half_crossing(h_values, p_values)

    @pytest.mark.parametrize(
        "h_values, p_values, message",
        [
            # unchecked: numpy's ValueError
            ([0.1, 0.2], ["x", 0.5], "p_values must be real numbers, got dtype <U32"),
            (["0.1", "h"], [0.9, 0.1], "h_values must be real numbers, got dtype <U3"),
            ([[0.1], [0.2, 0.3]], [0.9, 0.1], "h_values must be a 1-D array of numbers, got list"),
            # unchecked: TypeError
            ([0.1, 0.2], [0.9, 1j], "p_values must be real numbers, got dtype complex128"),
        ],
        ids=["string", "string_h", "ragged", "complex"],
    )
    def test_input_must_be_numbers(self, h_values, p_values, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            estimate_half_crossing(h_values, p_values)

    @pytest.mark.parametrize("bad", [0.0, -0.2, math.inf, math.nan])
    def test_h_must_be_positive_and_finite(self, bad):
        with pytest.raises(ParameterError):
            estimate_half_crossing([0.1, bad, 0.4], [0.9, 0.5, 0.2])

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -3.0, math.inf])
    def test_p_must_be_a_frequency(self, bad):
        with pytest.raises(ParameterError, match="p_values"):
            estimate_half_crossing([0.1, 0.2, 0.4], [0.9, bad, 0.2])

    def test_coarse_mesh_noise_adds_no_crossing(self):
        # README compare sweep (sine24, P1/P2, 200 pairs, jitter 0.3) at seed
        # 86264415: p(n=2) lands above 1/2 by chance.  Counting its n=2->3
        # "crossing" put the estimate at 0.418, a factor 2.07 from the fitted
        # h* = 0.2014; only the n=6 -> n=4 transition is real.
        h = [0.5721187627647645, 0.40484245224603677, 0.31434775220907424,
             0.21920158505570186, 0.1668794568734161, 0.11570701803902597,
             0.08801466099266125, 0.06031528008078709, 0.045764894087345666,
             0.031048625605573595, 0.023547163697047548, 0.015878299888189246]
        p = [0.525, 0.205, 0.495, 0.925, 0.97, 0.995, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        d0, d1 = 0.925 - 0.5, 0.495 - 0.5
        frac = d0 / (d0 - d1)
        n4_to_n6 = math.exp(math.log(h[3]) + frac * (math.log(h[2]) - math.log(h[3])))
        crossing = estimate_half_crossing(h, p)
        assert crossing == pytest.approx(n4_to_n6, rel=1e-12)
        assert crossing / 0.2014292578222409 < 1.6

    def test_monotone_curve_is_interpolated_unchanged(self):
        h = [0.1, 0.2, 0.4, 0.8]
        p = [0.9, 0.7, 0.3, 0.1]
        d0, d1 = 0.7 - 0.5, 0.3 - 0.5
        frac = d0 / (d0 - d1)
        expected = math.exp(math.log(0.2) + frac * (math.log(0.4) - math.log(0.2)))
        assert estimate_half_crossing(h, p) == expected

    @staticmethod
    def _every_crossing(h_values, p_values):
        """The crossing as a search over every segment of the fit found it,
        averaging in log h each sign change and each point at exactly 1/2."""
        h = np.asarray(h_values, dtype=np.float64)
        order = np.argsort(h)
        h = h[order]
        p = study._non_increasing_fit(np.asarray(p_values, dtype=np.float64)[order])
        crossings = []
        for i in range(len(h) - 1):
            d0, d1 = p[i] - 0.5, p[i + 1] - 0.5
            if d0 == 0.0:
                crossings.append(math.log(h[i]))
            elif d0 * d1 < 0.0:
                frac = d0 / (d0 - d1)
                crossings.append(math.log(h[i]) + frac * (math.log(h[i + 1]) - math.log(h[i])))
        if p[-1] == 0.5:
            crossings.append(math.log(h[-1]))
        if not crossings:
            return None
        return float(math.exp(np.mean(crossings)))

    @given(
        st.lists(
            st.tuples(
                # few distinct sizes, so that ties occur, in any order
                st.one_of(st.sampled_from([0.05, 0.1, 0.3, 1.0]),
                          st.floats(1e-6, 1e3, allow_subnormal=False)),
                # frequencies on a coarse grid, so that runs at exactly 1/2 occur
                st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_the_one_crossing_is_every_crossing_averaged(self, points):
        # a non-increasing fit meets 1/2 on one run of points or passes it
        # once, so the average over all its crossings is that one, bit for bit
        h, p = zip(*points)
        assert repr(estimate_half_crossing(h, p)) == repr(self._every_crossing(h, p))
