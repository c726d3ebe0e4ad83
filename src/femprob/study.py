"""Randomized convergence studies, constant fitting, and superiority runs.

This is the experimental side of the package: it produces real H1 errors on
jittered meshes, recovers each family's lumped error constant by log-log
least squares, and measures how often the high-order family actually beats
the low-order one, trial by trial, as the mesh size varies.

Trial seeds come from `derive_key(seed, stream, n, trial, ...)`.  The
superiority sweep derives them, draws its meshes and checks them as one
array per element count and family (`Mesh1D._of_rows`); the convergence
study builds and checks its meshes one trial at a time.  Both pass the
meshes of each element count and family, lazily, to one loop: it solves
each mesh on its own, then integrates the H1 errors of a chunk of trials
(as many meshes as one `fem.h1_errors` block holds) in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, _checked_count
from .fem import _trials_per_block, assemble_solve, h1_errors
from .mesh import Mesh1D, build_mesh, jittered_nodes
from .oracle import McEstimate
from .problems import Problem1D
from .rng import derive_key

__all__ = [
    "ConvergenceRecord",
    "FittedLaw",
    "SweepPoint",
    "convergence_study",
    "fit_constant",
    "empirical_superiority",
    "superiority_sweep",
    "estimate_half_crossing",
]

# sub-stream tags for per-trial seed derivation
_STREAM_STUDY = 11
_STREAM_SUPERIORITY = 12

# below this level errors are dominated by rounding, not discretization
_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvergenceRecord:
    """One (mesh, solve) outcome: the raw material for fits and counts."""

    order: int
    n_elements: int
    h_max: float
    error_h1: float
    error_h1_semi: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.error_h1_semi <= self.error_h1:
            raise ParameterError(
                "error_h1 must dominate error_h1_semi and both must be >= 0"
            )


@dataclass(frozen=True)
class FittedLaw:
    """Least-squares power law error ~ constant * h**rate for one family."""

    order: int
    constant: float
    rate: float
    residual: float

    def rate_consistent(self, window: float = 0.5) -> bool:
        """Whether the fitted rate sits within `window` of the theory order."""
        return abs(self.rate - self.order) <= window


def _checked_n_list(n_list: Sequence[int]) -> list[int]:
    n_list = [_checked_count(n, f"n_list[{i}]") for i, n in enumerate(n_list)]
    if not n_list:
        raise ParameterError("n_list must be non-empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ParameterError("n_list must be strictly increasing")
    return n_list


def _rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked as rows; a lone array as a view, not a copy.

    A mesh too large to share a block comes alone, and a copy of its
    solution would raise the peak memory of a large solve by its size.
    """
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _family_records(
    problem: Problem1D, order: int, n: int, meshes: Iterable[Mesh1D]
) -> list[ConvergenceRecord]:
    """Records of a family of n-element trial meshes, in the order given.

    The meshes are taken lazily, as many at a time as one `h1_errors`
    block holds: a solve per mesh, then one `h1_errors` call for all of
    them.  Each chunk's solutions are dropped before the next is solved.
    """
    meshes, step = iter(meshes), _trials_per_block(n, order)
    records = []
    while chunk := list(islice(meshes, step)):
        solutions = [assemble_solve(mesh, order, problem) for mesh in chunk]
        full, semi = h1_errors(
            order,
            _rows([mesh.nodes for mesh in chunk]),
            _rows([solution.slopes for solution in solutions]),
            _rows([solution.bubbles for solution in solutions]),
            problem,
        )
        del solutions
        records.extend(
            ConvergenceRecord(order, mesh.n_elements, mesh.h_max, error, error_semi, mesh.seed)
            for mesh, error, error_semi in zip(chunk, full.tolist(), semi.tolist())
        )
    return records


def convergence_study(
    problem: Problem1D,
    order: int,
    n_list: Sequence[int],
    jitter: float,
    trials_per_n: int,
    seed: int,
) -> list[ConvergenceRecord]:
    """Solve on `trials_per_n` jittered meshes for each element count.

    Per-trial seeds are derived from (seed, n, trial), so the record list
    is reproducible and independent of evaluation order.
    """
    n_list = _checked_n_list(n_list)
    trials_per_n = _checked_count(trials_per_n, "trials_per_n")
    records = []
    for n in n_list:
        meshes = (
            build_mesh(n, jitter, derive_key(seed, _STREAM_STUDY, n, trial))
            for trial in range(trials_per_n)
        )
        records.extend(_family_records(problem, order, n, meshes))
    return records


def fit_constant(
    records: Iterable[ConvergenceRecord], order: int, fix_rate: bool = False
) -> FittedLaw:
    """Fit ln(error) = ln C + r * ln h over the records of one family.

    With `fix_rate` the exponent is pinned to the theoretical order and only
    the constant is estimated.  Records at or below the rounding floor carry
    no rate information and are dropped first; refuses to fit when fewer
    than three distinct mesh sizes remain.  Every record of the order must
    have a positive, finite `h_max` and a finite `error_h1`; any other is a
    `ParameterError` naming the field.  (`ConvergenceRecord` does not check
    them itself: a study builds thousands of records, and only a fit needs
    these.)
    """
    order = _checked_count(order, "order")
    subset = [r for r in records if r.order == order]
    h = np.array([r.h_max for r in subset])
    err = np.array([r.error_h1 for r in subset])
    if not ((h > 0.0) & (h < math.inf)).all():
        raise ParameterError(f"h_max of every order-{order} record must be positive and finite")
    if not np.isfinite(err).all():
        raise ParameterError(f"error_h1 of every order-{order} record must be finite")
    clean = err > _NOISE_FLOOR
    h, err = h[clean], err[clean]
    n_sizes = np.unique(h).size
    if n_sizes < 3:
        raise InsufficientDataError(
            f"need >= 3 distinct mesh sizes for order {order} with errors above"
            f" the rounding floor {_NOISE_FLOOR:g}, got {n_sizes};"
            f" {len(subset) - len(h)} of {len(subset)} records sit at the floor"
            " (insufficient dynamic range for a power-law fit)"
        )
    log_h = np.log(h)
    log_e = np.log(err)
    if fix_rate:
        rate = float(order)
        log_c = float(np.mean(log_e - rate * log_h))
    else:
        rate, log_c = np.polyfit(log_h, log_e, 1)
        rate, log_c = float(rate), float(log_c)
    misfit = log_e - (log_c + rate * log_h)
    return FittedLaw(
        order=order,
        constant=float(np.exp(log_c)),
        rate=rate,
        residual=float(np.sqrt(np.mean(misfit**2))),
    )


@dataclass(frozen=True)
class SweepPoint:
    """Superiority estimate at one element count, with the mean mesh size."""

    n_elements: int
    h_mean: float
    estimate: McEstimate


def superiority_sweep(
    problem: Problem1D,
    order_low: int,
    order_high: int,
    n_list: Sequence[int],
    trials: int,
    jitter: float,
    seed: int,
) -> tuple[list[SweepPoint], list[ConvergenceRecord]]:
    """Run the superiority experiment across an element-count sweep.

    Returns one point per n plus every underlying record (both families),
    so callers can fit constants from exactly the data that produced the
    frequencies.  Trial t's low- and high-order meshes are
    ``build_mesh(n, jitter, derive_key(seed, 12, n, t, role))`` for roles 0
    and 1, drawn and checked for all trials of one (n, role) at once, as one
    node array.  Each mesh is solved on its own; the H1 errors of a block of
    them come from one `fem.h1_errors` call, equal bit for bit to `h1_error`
    of each solve.
    """
    n_list = _checked_n_list(n_list)
    order_low = _checked_count(order_low, "order_low")
    order_high = _checked_count(order_high, "order_high")
    if order_low >= order_high:
        raise ParameterError(
            f"order_low must be < order_high, got {order_low} >= {order_high}"
        )
    trials = _checked_count(trials, "trials")
    trial_index = np.arange(trials, dtype=np.uint64)
    points = []
    records = []
    for n in n_list:
        families = []
        for role, order in enumerate((order_low, order_high)):
            # one independent mesh per trial and family, the meshes of a
            # family drawn as the rows of one node array
            seeds = derive_key(seed, _STREAM_SUPERIORITY, n, trial_index, role)
            meshes = Mesh1D._of_rows(jittered_nodes(n, jitter, seeds), seeds)
            families.append(_family_records(problem, order, n, meshes))
        low, high = families
        wins = sum(b.error_h1 <= a.error_h1 for a, b in zip(low, high))
        records.extend(record for pair in zip(low, high) for record in pair)
        points.append(
            SweepPoint(
                n_elements=n,
                h_mean=float(np.mean([r.h_max for r in records[-2 * trials:]])),
                estimate=McEstimate(p_hat=wins / trials, n_trials=trials, seed=seed),
            )
        )
    return points, records


def empirical_superiority(
    problem: Problem1D,
    order_low: int,
    order_high: int,
    n_elements: int,
    trials: int,
    jitter: float,
    seed: int,
) -> McEstimate:
    """Frequency of "high-order error <= low-order error" over mesh pairs.

    The one-point `superiority_sweep`: each trial draws one independent
    jittered mesh per family, solves both problems, and compares full H1
    errors.
    """
    points, _ = superiority_sweep(
        problem, order_low, order_high, [n_elements], trials, jitter, seed
    )
    return points[0].estimate


def _non_increasing_fit(values: np.ndarray) -> np.ndarray:
    """Least-squares non-increasing fit by pool-adjacent-violators.

    Runs of values that rise are pooled into their mean; a value that
    already continues a non-increasing run is returned unchanged.
    """
    blocks: list[list[float]] = []  # [sum, count] per pooled run
    for value in values:
        blocks.append([float(value), 1])
        while len(blocks) > 1 and (
            blocks[-2][0] / blocks[-2][1] < blocks[-1][0] / blocks[-1][1]
        ):
            total, count = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
    return np.repeat([total / count for total, count in blocks], [c for _, c in blocks])


def estimate_half_crossing(
    h_values: Sequence[float], p_values: Sequence[float]
) -> float | None:
    """Mesh size where an empirical probability curve crosses 1/2.

    The superiority probability falls as h grows, so the frequencies are
    first replaced by their least-squares non-increasing fit (pool-adjacent
    violators).  Monte Carlo noise near 1/2 at the coarsest meshes then can
    no longer add spurious crossings.  The fit's sign changes of p - 1/2 are
    interpolated linearly in log h; a fit that touches 1/2 on several grid
    points yields several crossings, and their geometric mean is returned.
    None when the curve never crosses.
    """
    h = np.asarray(h_values, dtype=np.float64)
    p = np.asarray(p_values, dtype=np.float64)
    if h.ndim != 1 or h.shape != p.shape:
        raise ParameterError("h_values and p_values must be 1-D and have equal length")
    if h.size == 0 or not ((h > 0.0) & (h < math.inf)).all():
        raise ParameterError("h_values must be non-empty, positive and finite")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ParameterError("p_values must be finite and lie in [0, 1]")
    order = np.argsort(h)
    h = h[order]
    p = _non_increasing_fit(p[order])
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
