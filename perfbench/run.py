"""femprob's benchmark: one workload, its metrics, and checks on its outputs.

    python3 perfbench/run.py --workload compare_small --seed 2026 --seconds 30 --trace 0

With ``--trace 0`` it reports BENCHMARK.json's end-to-end metrics, measured
without tracing; with ``--trace 1`` its per-layer metrics, from a run that
records spans around femprob's public functions. It prints a report, one
JSON line with the environment and notes, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. perfbench/README.md
describes every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CYCLES = 3
IMPORTTIME_LAUNCHES = 3
BLAS1_ITERATIONS = 3
SETUP_ARGS = ["-c", "import femprob.cli"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORTED_PACKAGES = ("numpy", "scipy", "click")


def load_femprob() -> None:
    """Import femprob from this checkout's src/ and from nowhere else."""
    package = SRC / "femprob"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no femprob sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import femprob

    if Path(femprob.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: femprob was imported from {femprob.__file__}")


class Tally:
    """Checked operations: every iteration and every child process is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, failures: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(f"{label}: {failure}" for failure in failures)
        return not failures


def cycle(step, seconds: float) -> None:
    """Call `step` for `seconds`, and at least MIN_CYCLES times.

    A step interleaves every measurement of a run, so that slow drifts in
    the speed of a shared machine reach all of them alike.
    """
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        step()
        cycles += 1


def median(values: list[float], what: str) -> float:
    if not values:
        raise SystemExit(f"perfbench: no successful {what}")
    return statistics.median(values)


def _exit_failures(child: procs.Child) -> list[str]:
    if child.returncode == 0:
        return []
    tail = child.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {child.returncode}: {tail[0]}"]


class Session:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, work_dir: Path):
        from femprob.problems import get_problem

        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tally = Tally()
        self.problem = get_problem(workload.problem) if workload.problem else None
        # warm-up: lru caches and lazy imports; its output is the reference
        self.first = workload.run(self.problem, seed)
        self.digest = workloads.digest(self.first)
        self.tally.record("warm-up", workload.check(self.first))
        # every iteration repeats this output exactly (digest), and so its defects
        self.defects = workload.defects(self.first)

    def iteration(self, problem, extra_check=None) -> float | None:
        """Run and check one iteration; its wall time, or None if it raised."""
        label = f"iteration {self.tally.attempted}"
        start = time.perf_counter()
        try:
            out = self.workload.run(problem, self.seed)
        except FemProbError as exc:
            self.tally.record(label, [f"{type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start
        failures = self.workload.check(out) + (extra_check() if extra_check else [])
        if workloads.digest(out) != self.digest:
            failures.append("output digest differs from the first iteration")
        self.tally.record(label, failures)
        return elapsed

    def spawn(self, args: list[str], env=None) -> procs.Child:
        return procs.spawn(args, self.work_dir, env)

    def setup_run(self) -> float | None:
        child = self.spawn(SETUP_ARGS)
        return child.wall_s if self.tally.record("setup", _exit_failures(child)) else None

    def cli_run(self) -> tuple[procs.Child, int]:
        """One fresh `femprob` CLI run, checked; the child and the bytes it wrote.

        The CLI exits 1 from its own validation after doing all of its work.
        It must do so exactly when the in-process output shows a known defect,
        and such a run is timed like any other.
        """
        out_dir = self.work_dir / "cli"
        out_dir.mkdir()
        try:
            cli_args = ["-m", "femprob.cli", *self.workload.cli_args(self.seed, out_dir)]
            child = procs.spawn_measured(cli_args, self.work_dir)
            if not self.defects:
                failures = _exit_failures(child)
            elif child.returncode != 1:
                failures = [f"exit code {child.returncode}, expected 1 from its validation"]
            else:
                failures = []
            try:
                failures += self.workload.check_cli(self.first, out_dir)
            except (OSError, KeyError, ValueError) as exc:
                failures.append(f"unreadable CLI output: {exc!r}")
            written = sum(path.stat().st_size for path in out_dir.iterdir())
        finally:
            shutil.rmtree(out_dir)
        self.tally.record("cli run", failures)
        return child, written


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict, dict]:
    setup, times, walls, rss, refs = [], [], [], [], []
    setup_rel, run_rel, cli_rel = [], [], []
    session.spawn(SETUP_ARGS)  # warm-up: bytecode and file cache
    reference.seconds()

    def step():
        ref = reference.seconds()
        refs.append(ref)
        elapsed = session.iteration(session.problem)
        if elapsed is not None:
            times.append(elapsed)
            run_rel.append(elapsed / ref)
        wall = session.setup_run()
        if wall is not None:
            setup.append(wall)
            setup_rel.append(wall / ref)
        child, _ = session.cli_run()
        walls.append(child.wall_s)
        cli_rel.append(child.wall_s / ref)
        rss.append(child.maxrss_kib / 1024.0)

    cycle(step, seconds)
    values = {
        # in seconds at the reference speed, so that host drift cancels as in run_rel
        "setup_s": median(setup_rel, "setup launch") * reference.NOMINAL_S,
        "run_rel": median(run_rel, "iteration"),
        "cli_rel": median(cli_rel, "CLI run"),
        "peak_rss_mb": median(rss, "CLI run"),
    }
    samples = {"setup_s": len(setup), "run_rel": len(times), "cli_rel": len(walls)}
    samples["peak_rss_mb"] = samples["cli_rel"]
    raw = {
        "run_s": statistics.median(times),
        "cli_s": statistics.median(walls),
        "reference_s": statistics.median(refs),
        "setup_wall_s": statistics.median(setup),
    }
    return values, samples, raw


def per_layer(session: Session, seconds: float) -> tuple[dict, dict]:
    from femprob.fem import galerkin_residual

    workload = session.workload
    tracer = spans.Tracer(workload.residual_stride)
    problem = spans.traced_problem(session.problem, tracer) if session.problem else None
    plain, traced, summaries, solve_durations, residuals = [], [], [], [], []

    def counts_match() -> list[str]:
        return [
            f"{key} = {tracer.counts.get(key, 0)}, expected {want}"
            for key, want in workload.expected_counts.items()
            if tracer.counts.get(key, 0) != want
        ]

    def step():
        # plain and traced iterations alternate, so their difference is the overhead
        elapsed = session.iteration(session.problem)
        if elapsed is not None:
            plain.append(elapsed)
        tracer.reset()
        with spans.installed(tracer):
            elapsed = session.iteration(problem, counts_match)
        if elapsed is None:
            return
        traced.append(elapsed)
        summaries.append(dict(tracer.counts) | spans.summarize(tracer.spans))
        solve_durations.extend(spans.durations(tracer.spans, "fem.assemble_solve"))
        if not residuals:  # outputs repeat exactly, so one iteration's sample is enough
            residuals.extend(galerkin_residual(s, session.problem) for s in tracer.solves)

    cycle(step, seconds)

    values = dict.fromkeys(spans.METRIC_KEYS, 0)
    for key in set().union(*summaries):
        # median_low: a value some iteration measured, so counts stay whole
        values[key] = statistics.median_low(summary.get(key, 0) for summary in summaries)
    values["study.fit_refused"] = values.pop("study.fit_constant.errors", 0)
    if len(solve_durations) > 1:
        percentiles = statistics.quantiles(solve_durations, n=100)
        values["fem.assemble_solve.p50_us"] = percentiles[49] * 1e6
        values["fem.assemble_solve.p99_us"] = percentiles[98] * 1e6
    values["fem.galerkin_residual_max"] = max(residuals, default=0.0)
    values["trace.overhead_s"] = median(traced, "traced iteration") - median(plain, "iteration")
    errors = session.first.get("errors", [])
    values["study.floor_share"] = (
        sum(e <= workloads.FLOOR for e in errors) / len(errors) if errors else 0.0
    )
    notes = workload.notes(session.first)
    values["err_rises"] = notes.get("err_rises", 0)
    values["study.crossing_ratio"] = notes.get("crossing_ratio") or 0.0
    values["fem.blas1_run_s"] = blas1_run_s(session)

    reports = [session.spawn(["-X", "importtime", *SETUP_ARGS]) for _ in range(IMPORTTIME_LAUNCHES)]
    for report in reports:
        session.tally.record("importtime", _exit_failures(report))
    by_package = [procs.import_seconds(r.stderr, IMPORTED_PACKAGES) for r in reports]
    for package in IMPORTED_PACKAGES:
        values[f"cli.import.{package}_s"] = statistics.median(t[package] for t in by_package)
    values["cli.import.femprob_self_s"] = statistics.median(
        procs.import_self_seconds(r.stderr, "femprob") for r in reports
    )
    _, values["cli.write_bytes"] = session.cli_run()

    samples = {"run_s": len(plain), "traced_run_s": len(traced), "solves": len(solve_durations)}
    return values, samples, {"run_s": statistics.median(plain)}


def blas1_run_s(session: Session) -> float:
    """Warm run_s of the workload in a child process whose BLAS has one thread."""
    child = session.spawn(
        [
            str(HERE / "loop.py"),
            "--workload", session.workload.name,
            "--seed", str(session.seed),
            "--iterations", str(BLAS1_ITERATIONS),
        ],  # fmt: skip
        env=procs.child_env(**dict.fromkeys(THREAD_VARS, "1")),
    )
    if not session.tally.record("blas1 run", _exit_failures(child)):
        return 0.0
    return json.loads(child.stdout.splitlines()[-1])["run_s"]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not search parent directories
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric_spec(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = metric_spec(bool(args.trace))
    procs.terminate_on_sigterm()  # and the scratch directory is removed on the way out

    # in the checkout, not in the system's temp directory: the benchmark
    # reads and writes nothing outside the checkout it runs from
    work_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(workloads.WORKLOADS[args.workload], args.seed, work_dir)
        measure = per_layer if args.trace else end_to_end
        values, samples, raw = measure(session, args.seconds)
    finally:
        shutil.rmtree(work_dir)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in metrics.items():
        count = samples.get(name)
        suffix = f"  (median of {count})" if count else ""
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}{suffix}")
    for name, value in raw.items():
        print(f"{name:32s} {value:>16.6g} s  (not gated)")
    for failure in session.tally.failures:
        print(f"FAILED {failure}")
    for defect in session.defects:
        print(f"KNOWN DEFECT (not a failure) {defect}")
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "raw": raw,
        "notes": session.workload.notes(session.first),
        "known_defects": session.defects,
        "env": environment(args.seed),
    }
    print(json.dumps(detail))
    tally = session.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0  # a failed check shows in "correct"; a non-zero exit means no result


load_femprob()
import procs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from femprob.errors import FemProbError  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
