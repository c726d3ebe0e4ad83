"""The benchmark's workloads: inputs from a seed, one iteration, output checks.

Every library call goes through a module attribute (``study.superiority_sweep``,
never a name bound here at import), so the wrappers of a traced run see it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import femprob.laws as laws
import femprob.oracle as oracle
import femprob.problems as problems
import femprob.rng as rng
import femprob.study as study
from femprob.errors import InsufficientDataError

JITTER = 0.3
# records at or below this H1 error sit on the rounding floor (as in femprob.study)
FLOOR = 1e-12

COMPARE_N = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)
COMPARE_TRIALS = 200
COMPARE_MIN_FINAL_P = 0.95
COMPARE_CROSSING_FACTOR = 2.0

FEM_ORDERS = (1, 2, 3, 4, 6, 8, 10)
FEM_N = (1024, 4096, 16384, 65536)
FEM_CHECKED_ORDERS = (1, 2)
FEM_RATE_WINDOW = 0.15

MC_H_MIN, MC_H_MAX, MC_POINTS = 0.1, 1.5, 20
MC_TRIALS = 10**6
MC_SIGMA = 3.0
# 20 points inside a 3-sigma band each fail with probability 0.0027, so at
# least one leaves it in 5.3% of seeds; three or more leave it in 2e-5.
MC_MAX_OUTSIDE = 2


def _floats(rows: list[dict[str, str]], column: str) -> list[float]:
    return [float(row[column]) for row in rows]


def read_csv(path: Path) -> list[dict[str, str]]:
    """Data rows of a femprob CSV file, skipping its `#` header lines."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def digest(output: dict) -> str:
    """Stable fingerprint of an iteration's output (floats by their repr)."""
    return hashlib.sha256(repr(sorted(output.items())).encode()).hexdigest()


def _mismatch(name: str, got: list[float], want: list[float]) -> list[str]:
    if got != want:
        return [f"CLI {name} column differs from the in-process result"]
    return []


# --- compare_small ----------------------------------------------------------


def run_compare(problem: problems.Problem1D, seed: int) -> dict:
    points, records = study.superiority_sweep(
        problem, 1, 2, COMPARE_N, COMPARE_TRIALS, JITTER, seed
    )
    low = study.fit_constant(records, 1, fix_rate=True)
    high = study.fit_constant(records, 2, fix_rate=True)
    pair = laws.ElementPair.from_constants(low.constant, 1, high.constant, 2)
    h_mean = [p.h_mean for p in points]
    p_hat = [p.estimate.p_hat for p in points]
    return {
        "h_mean": h_mean,
        "p_hat": p_hat,
        "p_model": [laws.prob_sigmoid(pair, h) for h in h_mean],
        "h_star": pair.h_star,
        "crossing": study.estimate_half_crossing(h_mean, p_hat),
        "errors": [r.error_h1 for r in records],
    }


def check_compare(out: dict) -> list[str]:
    failures = []
    if out["crossing"] is None:
        failures.append("the superiority frequency never crossed 1/2")
    if out["p_hat"][-1] < COMPARE_MIN_FINAL_P:
        failures.append(f"finest-mesh frequency {out['p_hat'][-1]} < {COMPARE_MIN_FINAL_P}")
    return failures


def defects_compare(out: dict) -> list[str]:
    """The factor-2 crossing test, failed at about one seed in four by a femprob defect.

    At n = 2 the frequency sits near 1/2. When it lands above,
    `study.estimate_half_crossing` averages in a spurious n=2->3 crossing and
    the ratio moves from about 1.5 to about 2.05. The parent fails the test
    at those seeds too, so it cannot tell a regression: it is reported on
    every run, and the CLI run must reach the same verdict.
    """
    if out["crossing"] is None or (ratio := crossing_ratio(out)) <= COMPARE_CROSSING_FACTOR:
        return []
    return [f"crossing/h* ratio {ratio} exceeds {COMPARE_CROSSING_FACTOR:g}"]


def crossing_ratio(out: dict) -> float:
    """How far the empirical 0.5-crossing lies from the fitted h*, as a factor >= 1."""
    return max(out["crossing"] / out["h_star"], out["h_star"] / out["crossing"])


def notes_compare(out: dict) -> dict:
    return {
        "h_star_fitted": out["h_star"],
        "h_crossing_empirical": out["crossing"],
        "crossing_ratio": None if out["crossing"] is None else crossing_ratio(out),
    }


def cli_compare(seed: int, out_dir: Path) -> list[str]:
    return [
        "compare", "--problem", "sine24", "--order-low", "1", "--order-high", "2",
        "--n-list", ",".join(map(str, COMPARE_N)), "--trials", str(COMPARE_TRIALS),
        "--jitter", str(JITTER), "--validate-crossing",
        "--crossing-factor", str(COMPARE_CROSSING_FACTOR),
        "--min-final-p", str(COMPARE_MIN_FINAL_P),
        "--seed", str(seed), "--out", str(out_dir / "compare.csv"),
    ]  # fmt: skip


def check_cli_compare(out: dict, out_dir: Path) -> list[str]:
    rows = read_csv(out_dir / "compare.csv")
    return _mismatch("p_hat", _floats(rows, "p_hat"), out["p_hat"]) + _mismatch(
        "p_model", _floats(rows, "p_model"), out["p_model"]
    )


# --- fem_large --------------------------------------------------------------


def run_fem(problem: problems.Problem1D, seed: int) -> dict:
    records = []
    for order in FEM_ORDERS:
        records.extend(study.convergence_study(problem, order, FEM_N, JITTER, 1, seed))
    rates = {}
    for order in FEM_ORDERS:
        try:
            rates[order] = study.fit_constant(records, order).rate
        except InsufficientDataError:
            rates[order] = None
    return {
        "errors": [r.error_h1 for r in records],
        "rates": rates,
    }


def check_fem(out: dict) -> list[str]:
    failures = []
    for order in FEM_CHECKED_ORDERS:
        rate = out["rates"][order]
        if rate is None or abs(rate - order) > FEM_RATE_WINDOW:
            failures.append(f"order {order}: free-rate fit {rate} not within {FEM_RATE_WINDOW}")
    return failures


def err_rises(out: dict) -> int:
    """(order, consecutive n) steps of the convergence table where the error rose."""
    table = np.reshape(out["errors"], (len(FEM_ORDERS), len(FEM_N)))
    return int(np.count_nonzero(np.diff(table, axis=1) > 0.0))


def notes_fem(out: dict) -> dict:
    return {"err_rises": err_rises(out), "rates": {str(k): v for k, v in out["rates"].items()}}


def cli_fem(seed: int, out_dir: Path) -> list[str]:
    return [
        "fem", "--problem", "sine24", "--orders", ",".join(map(str, FEM_ORDERS)),
        "--n-list", ",".join(map(str, FEM_N)), "--jitter", str(JITTER),
        "--trials", "1", "--seed", str(seed), "--out", str(out_dir / "fem.csv"),
    ]  # fmt: skip


def check_cli_fem(out: dict, out_dir: Path) -> list[str]:
    records = read_csv(out_dir / "fem.csv")
    fits = read_csv(out_dir / "fem_fit.csv")
    want_rates = [r for r in out["rates"].values() if r is not None]
    return _mismatch("error_h1", _floats(records, "error_h1"), out["errors"]) + _mismatch(
        "rate", _floats(fits, "rate"), want_rates
    )


# --- mc_sweep ---------------------------------------------------------------


def run_mc(problem: None, seed: int) -> dict:
    pair = laws.ElementPair.from_constants(1.0, 1, 2.0, 2)
    grid = [float(h) for h in np.geomspace(MC_H_MIN, MC_H_MAX, MC_POINTS)]
    p_hat = [
        oracle.mc_estimate(pair, h, MC_TRIALS, rng.derive_key(seed, index)).p_hat
        for index, h in enumerate(grid)
    ]
    return {
        "h": grid,
        "p": [laws.prob_sigmoid(pair, h) for h in grid],
        "p_hat": p_hat,
    }


def mc_outside(out: dict) -> int:
    """Grid points outside the CLI's validation band of MC_SIGMA standard errors."""
    return sum(
        abs(p_hat - p) > MC_SIGMA * math.sqrt(p * (1.0 - p) / MC_TRIALS)
        for p, p_hat in zip(out["p"], out["p_hat"])
    )


def check_mc(out: dict) -> list[str]:
    outside = mc_outside(out)
    if outside > MC_MAX_OUTSIDE:
        return [f"{outside} of {MC_POINTS} points outside the {MC_SIGMA:g}-sigma band"]
    return []


def notes_mc(out: dict) -> dict:
    return {"points_outside_3sigma": mc_outside(out)}


def cli_mc(seed: int, out_dir: Path) -> list[str]:
    # --no-validate: the band is checked here, with the false-alarm rule above
    return [
        "mc", "--ck", "1", "--k", "1", "--cm", "2", "--m", "2",
        "--h-min", str(MC_H_MIN), "--h-max", str(MC_H_MAX),
        "--points", str(MC_POINTS), "--trials", str(MC_TRIALS),
        "--sigma-factor", str(MC_SIGMA), "--no-validate",
        "--seed", str(seed), "--out", str(out_dir / "mc.csv"),
    ]  # fmt: skip


def check_cli_mc(out: dict, out_dir: Path) -> list[str]:
    rows = read_csv(out_dir / "mc.csv")
    return _mismatch("h", _floats(rows, "h"), out["h"]) + _mismatch(
        "p_hat", _floats(rows, "p_hat"), out["p_hat"]
    )


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str | None  # library problem the iteration solves, if any
    run: Callable[[problems.Problem1D | None, int], dict]
    check: Callable[[dict], list[str]]
    notes: Callable[[dict], dict]
    cli_args: Callable[[int, Path], list[str]]
    check_cli: Callable[[dict, Path], list[str]]
    expected_counts: dict[str, int]  # exact per-iteration counts of a traced run
    residual_stride: int  # every n-th solve enters fem.galerkin_residual_max
    # known femprob defects the output shows; the CLI run must then exit 1
    defects: Callable[[dict], list[str]] = lambda out: []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare_small",
            problem="sine24",
            run=run_compare,
            check=check_compare,
            notes=notes_compare,
            cli_args=cli_compare,
            check_cli=check_cli_compare,
            expected_counts={"fem.assemble_solve.calls": 2 * len(COMPARE_N) * COMPARE_TRIALS},
            residual_stride=300,
            defects=defects_compare,
        ),
        Workload(
            name="fem_large",
            problem="sine24",
            run=run_fem,
            check=check_fem,
            notes=notes_fem,
            cli_args=cli_fem,
            check_cli=check_cli_fem,
            expected_counts={
                "fem.assemble_solve.calls": len(FEM_ORDERS) * len(FEM_N),
                "fem.assemble_solve.dofs": sum(k * n + 1 for k in FEM_ORDERS for n in FEM_N),
            },
            residual_stride=1,
        ),
        Workload(
            name="mc_sweep",
            problem=None,
            run=run_mc,
            check=check_mc,
            notes=notes_mc,
            cli_args=cli_mc,
            check_cli=check_cli_mc,
            expected_counts={
                "oracle.mc_estimate.calls": MC_POINTS,
                "rng.uniforms.draws": 2 * MC_POINTS * MC_TRIALS,
            },
            residual_stride=1,
        ),
    )
}
