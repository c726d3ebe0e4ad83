"""Command-line front end emitting plot-ready CSV for every experiment.

Four subcommands: `law` tabulates the closed-form probability laws, `mc`
validates the sigmoid law against Monte Carlo, `fem` runs convergence
studies and fits error constants, and `compare` runs the end-to-end
superiority experiment on real finite-element errors.

All data goes to the output path (default stdout) as CSV with `#` comment
headers recording parameters and validation thresholds; diagnostics go to
stderr.  `_cell` is the one rule that formats a value of those files,
`_row` builds every data row from it and `_params` every `# key=value`
header line.  Reruns with identical flags and seed produce byte-identical
files.
Start-up loads only the command group: `femprob`, `femprob.errors` and this
module.  Each command imports the library modules it runs when it starts,
before `_each_point` forks, so `law`, `--help` and a usage error never load
the solver, and the forked worker imports nothing the CLI process has not.
`mc`, `fem` and `compare` compute their independent points (grid sizes,
orders, element counts) through `_each_point`: on Linux, when the process
may use two CPUs, one forked worker runs every second point, by the split
rule of `fem._half` that `fem`'s helper thread shares; while the points
are split, neither process starts that helper.  It lives here and
not in the library, because a library call that forked would fork whatever
program imported it, while this process is the CLI's own.  The files,
stderr lines and exit codes are byte-identical with or without the worker.
Python 3.12 and later warn of a fork in a process that holds other OS
threads once the before-fork hooks have run; numpy's OpenBLAS starts a
thread pool at import, but its fork handler parks the pool, so this
process is one thread at each fork.  A BLAS that kept its threads across
`fork()` would draw the warning.
Exit codes: 0 success, 1 a requested validation failed, 2 invalid usage or
input, or out of memory.  `mc`, `fem` and `compare` return the list of their
requested validations that failed; the group's `main` prints each as an
`error:` line and alone decides the exit code.  Every bad flag value is
refused by its click type or callback, so its `error:` line names the flag;
a count flag (`--trials`, `--points`, `--k`, `--m`, every `--n-list` entry)
is at most `errors.MAX_COUNT`, 2**53.
"""

from __future__ import annotations

import math
import os
import re
import sys
from pathlib import Path

import click
import numpy as np

from .errors import (MAX_COUNT, MAX_ORDER, FemProbError, InsufficientDataError, ParameterError,
                     _checked_count, _checked_increasing)


def _cell(value) -> str:
    """One CSV value as every file of this command writes it: a flag as
    `true` or `false`, a float with full float64 precision (`%.17g`), a list
    as its cells joined by commas, a missing value as `none`, anything else
    as `str`."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, list):
        return ",".join(map(_cell, value))
    return "none" if value is None else str(value)


def _row(*values) -> str:
    """A CSV data row of these values."""
    return ",".join(map(_cell, values))


def _params(**values) -> str:
    """A `# key=value ...` header line of these parameters."""
    return "# " + " ".join(f"{key}={_cell(value)}" for key, value in values.items())


def _record_lines(records) -> list[str]:
    """Convergence records as CSV lines under their header."""
    return ["order,n_elements,h_max,error_h1,error_h1_semi,seed"] + [
        _row(r.order, r.n_elements, r.h_max, r.error_h1, r.error_h1_semi, r.seed)
        for r in records
    ]


class _Finite(click.FloatRange):
    """A float range that also refuses NaN and the infinities."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{number} is not a finite number.", param, ctx)
        return number


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Parse `key=value` lines into the command's `default_map`.

    Blank lines and comments are ignored: a comment starts at a `#` that
    begins the line or follows whitespace, so `h_max=1  # note` reads `1`
    while `out=run#1.csv` keeps its `#`.  The keys are the long flag
    names of the running subcommand (`-` or `_` spelled); click converts and
    checks each value exactly as it would the flag, and an explicit flag
    still wins.  An unknown key, or one given twice, is rejected rather than
    silently dropped.  The file is read as UTF-8, whatever the locale, and
    a leading byte-order mark is skipped.
    """
    if path is None:
        return
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path!r} is not UTF-8 text: {exc}") from None
    known = {other.name for other in ctx.command.params if other is not param}
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = re.sub(r"(^|\s)#.*", "", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {raw!r} is not key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in values:
            raise ParameterError(f"config key {key!r} is given twice")
        values[key] = value.strip()
    unknown = sorted(values.keys() - known)
    if unknown:
        raise ParameterError(
            f"unknown config key {', '.join(map(repr, unknown))} for"
            f" 'femprob {ctx.command.name}'; known keys: {', '.join(sorted(known))}"
        )
    ctx.default_map = values


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise click.BadParameter(f"expected a comma-separated integer list: {exc}") from exc


def _orders(ctx: click.Context, param: click.Parameter, text: str) -> list[int]:
    orders = _int_list(text)
    if len(set(orders)) < len(orders) or not 1 <= min(orders) <= max(orders) <= MAX_ORDER:
        raise click.BadParameter(f"expected distinct orders in [1, {MAX_ORDER}], got {text!r}")
    return orders


def _n_list(ctx: click.Context, param: click.Parameter, text: str) -> list[int]:
    """The element counts of `text`, by the library's `n_list` rule."""
    try:
        return _checked_increasing(_int_list(text), "n_list", _checked_count)
    except ParameterError as exc:
        raise click.BadParameter(str(exc)) from None


def _h_grid(h_min: float, h_max: float, points: int, spacing: str) -> np.ndarray:
    """The mesh sizes of `law` and `mc`: `points` strictly increasing sizes
    from h-min to h-max, or the one size h-min == h-max."""
    if points == 1:
        if h_min != h_max:
            raise ParameterError("a single-point grid needs h-min == h-max")
        return np.array([h_min])
    grid = (np.geomspace if spacing == "log" else np.linspace)(h_min, h_max, points)
    if not (grid[1:] > grid[:-1]).all():
        raise ParameterError(f"h-min must be < h-max, by enough for {points} distinct points")
    return grid


def _each_point(run, items: list) -> list:
    """`[run(item) for item in items]`, the odd items run by one forked worker.

    On Linux, when the process may use two CPUs (`fem._WORKERS`) and there
    are two items or more, one `os.fork()`ed worker runs the odd items and
    this process the even ones, each half by `fem._half`, the package's one
    split rule; the worker pickles its results and its failure back through
    a pipe.  The items are independent and each is computed as a serial loop
    would, so the results are the same bits either way.  While the halves
    run, `fem._WORKERS` is 1 in both processes, so each runs its quadrature
    blocks inline, with no helper thread (two processes already use the two
    CPUs); it is restored afterwards, also on failure.  The exception
    raised is that of the first failing item in item order, as a serial loop
    raises it; a worker that ends without sending its half (killed, say)
    counts as failing at its first item, with a `ChildProcessError`.
    The worker is always reaped; if this process leaves early (an interrupt,
    an exit), it kills the worker first, and the kernel kills the worker if
    this process dies.
    """
    from . import fem as _fem

    if sys.platform != "linux" or _fem._WORKERS < 2 or len(items) < 2:
        return [run(item) for item in items]
    import ctypes
    import pickle
    import signal

    results, failures = {}, {}  # item index -> its result, or its exception
    parent = os.getpid()
    # one level of parallelism: each process runs its quadrature blocks inline
    workers, _fem._WORKERS = _fem._WORKERS, 1
    try:
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker: it never returns, and leaves by os._exit only
            status = 1
            try:
                os.close(reader)
                libc = ctypes.CDLL(None, use_errno=True)
                libc.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
                libc.prctl.restype = ctypes.c_int
                if libc.prctl(1, signal.SIGKILL) != 0:  # PR_SET_PDEATHSIG
                    raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
                if os.getppid() == parent:  # else the parent died before prctl
                    with open(writer, "wb") as half:
                        _fem._half(run, items, 1, results, failures)
                        pickle.dump((results, failures), half)
                    status = 0
            finally:
                os._exit(status)
        os.close(writer)
        with open(reader, "rb") as half:
            try:
                _fem._half(run, items, 0, results, failures)
                sent = half.read()
            except BaseException:  # an interrupt or exit: stop the worker, then leave
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        _fem._WORKERS = workers
    odd_results, odd_failures = pickle.loads(sent) if status == 0 else ({}, {1: ChildProcessError(
        f"the worker process of {len(items) // 2} points ended with status {status}"
        " before it sent their results")})
    results.update(odd_results)
    failures.update(odd_failures)
    if failures:
        raise failures[min(failures)]
    return [results[index] for index in range(len(items))]


def _emit(out: str, lines: list[str], *more: tuple[str, list[str]]) -> None:
    """Write `lines` to `out`, and each further `(out, lines)` pair, as one set.

    An `out` of `-` is stdout.  A file's text goes to a temp file beside it;
    only once every temp file is written does `os.replace` move them into
    place, so a failed write leaves no partial file, no temp file and no
    file of the set without the others.
    """
    staged: list[tuple[Path, Path]] = []
    in_place: list[tuple[Path | None, str]] = []
    try:
        for out, lines in ((out, lines), *more):
            text = "\n".join(lines) + "\n"
            target = None if out == "-" else Path(out)
            if target is None or (target.exists() and not target.is_file()):
                # stdout, a device or a pipe (say /dev/null) is written, never replaced
                in_place.append((target, text))
                continue
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            try:
                handle = open(temp, "x")
            except OSError as exc:
                exc.filename = out  # name the path the user gave, not the temp file
                raise
            staged.append((temp, target))
            with handle:
                handle.write(text)
        for target, text in in_place:
            if target is None:
                sys.stdout.write(text)
            else:
                target.write_text(text)
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
        raise


class _Femprob(click.Group):
    """The command group and its one exit boundary: bad usage, bad input, an
    unusable file path or running out of memory, in this process or in the
    forked worker, leaves as one `error:` line and exit 2; each failed
    validation a command returns leaves as one `error:` line, and any of
    them as exit 1; otherwise the exit code is 0."""

    def main(self, *args, **kwargs):
        kwargs["standalone_mode"] = False
        try:
            failures = super().main(*args, **kwargs)
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.show()  # bare `femprob` prints the group help
            sys.exit(exc.exit_code)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except click.MissingParameter as exc:
            message = f"missing required parameter {exc.param.opts[0]}"
        except click.ClickException as exc:
            message = exc.format_message()
        except (FemProbError, OSError, MemoryError) as exc:
            message = str(exc) or type(exc).__name__  # a bare MemoryError has no text
        else:
            # `--help` returns 0 here and `law` returns None: neither failed
            for failure in failures or []:
                click.echo(f"error: {failure}", err=True)
            sys.exit(1 if failures else 0)
        click.echo(f"error: {message}", err=True)
        sys.exit(2)


@click.group(cls=_Femprob)
def main():
    """Probabilistic accuracy comparison of low- vs high-order elements."""


_seed_option = click.option("--seed", type=int, default=42, help="64-bit experiment seed.")
_out_option = click.option("--out", default="-", help="Output path, '-' for stdout.")
_config_option = click.option(
    "--config",
    callback=_load_config,
    is_eager=True,
    expose_value=False,
    help="key=value file; flags override it.",
)
_problem_option = click.option("--problem", default="sine", help="Library problem name.")
_positive = _Finite(0.0, min_open=True)
_count = click.IntRange(1, MAX_COUNT)  # the library's count ceiling, named by flag
_jitter = _Finite(0.0, 0.5, max_open=True)  # keeps every jittered mesh ordered


def _grid_options(points: int):
    """The element pair and the mesh-size grid that `law` and `mc` share."""
    options = (
        click.option("--ck", type=_positive, required=True, help="Low-order error constant."),
        click.option("--k", type=_count, required=True, help="Low polynomial order."),
        click.option("--cm", type=_positive, required=True, help="High-order error constant."),
        click.option("--m", type=_count, required=True, help="High polynomial order."),
        click.option("--h-min", type=_positive, required=True),
        click.option("--h-max", type=_positive, required=True),
        click.option("--points", type=_count, default=points),
        click.option("--spacing", type=click.Choice(["log", "linear"]), default="log"),
    )

    def apply(command):
        for option in reversed(options):
            command = option(command)
        return command

    return apply


@main.command()
@_grid_options(points=100)
@_out_option
@_config_option
def law(ck, k, cm, m, h_min, h_max, points, spacing, out):
    """Tabulate both closed-form laws on a mesh-size grid."""
    from .laws import ElementPair, prob_sigmoid, prob_two_step

    pair = ElementPair.from_constants(ck, k, cm, m)
    _emit(out, [
        "# femprob law",
        _params(ck=ck, k=k, cm=cm, m=m),
        _params(h_star=pair.h_star),
        "h,p_two_step,p_sigmoid",
        *(_row(h, prob_two_step(pair, h), prob_sigmoid(pair, h))
          for h in _h_grid(h_min, h_max, points, spacing)),
    ])


@main.command()
@_grid_options(points=20)
@click.option("--trials", type=_count, default=10**6, help="Monte Carlo trials per grid point.")
@click.option("--sigma-factor", type=_positive, default=3.0,
              help="Validation band half-width.")
@click.option("--validate/--no-validate", default=True)
@_seed_option
@_out_option
@_config_option
def mc(ck, k, cm, m, h_min, h_max, points, spacing, trials, sigma_factor, validate,
       seed, out):
    """Monte Carlo validation of the sigmoid law over a grid.

    Exits nonzero if any grid point falls outside the sigma band (unless
    --no-validate).
    """
    from .laws import ElementPair, prob_sigmoid
    from .oracle import mc_estimate
    from .rng import derive_key

    pair = ElementPair.from_constants(ck, k, cm, m)
    grid = _h_grid(h_min, h_max, points, spacing)
    lines = [
        "# femprob mc",
        _params(ck=ck, k=k, cm=cm, m=m),
        _params(trials=trials, seed=seed, sigma_factor=sigma_factor, validate=validate),
        "h,p_analytic,p_hat,std_error,within_3sigma",
    ]
    estimates = _each_point(
        lambda index: mc_estimate(pair, float(grid[index]), trials, derive_key(seed, index)),
        list(range(len(grid))),
    )
    all_within = True
    for h, estimate in zip(grid, estimates):
        p = prob_sigmoid(pair, float(h))
        band = sigma_factor * np.sqrt(p * (1.0 - p) / trials)
        within = abs(estimate.p_hat - p) <= band
        all_within &= within
        lines.append(_row(h, p, estimate.p_hat, estimate.std_error, within))
    _emit(out, lines)
    return ["Monte Carlo estimates left the sigma band"] if validate and not all_within else []


@main.command()
@_problem_option
@click.option("--orders", default="1,2,3", callback=_orders,
              help="Comma-separated element orders.")
@click.option("--n-list", default="8,16,32,64,128,256,512", callback=_n_list,
              help="Comma-separated element counts.")
@click.option("--jitter", type=_jitter, default=0.0)
@click.option("--trials", type=_count, default=1, help="Meshes per element count.")
@click.option("--fix-rate/--free-rate", default=False)
@click.option("--fit-out", default=None, help="Fit summary path (default: derived).")
@click.option("--validate-rates/--no-validate-rates", default=False)
@click.option("--rate-window", type=_Finite(0.0), default=0.15)
@_seed_option
@_out_option
@_config_option
def fem(problem, orders, n_list, jitter, trials, fix_rate, fit_out, validate_rates,
        rate_window, seed, out):
    """Convergence records plus power-law fits for each element order."""
    # `study` first: imported after `problems`, it left a heap laid out so
    # that a 655k-DOF run peaked 0.5 MB higher
    from .study import convergence_study, fit_constant
    from .problems import get_problem

    problem = get_problem(problem)
    if fit_out is None:
        stem = Path(out)
        fit_out = "-" if out == "-" else str(stem.with_name(f"{stem.stem}_fit{stem.suffix}"))

    studies = _each_point(
        lambda order: convergence_study(problem, order, n_list, jitter, trials, seed), orders
    )
    records = [record for study in studies for record in study]

    record_lines = [
        "# femprob fem",
        _params(problem=problem.name, orders=orders, n_list=n_list),
        _params(jitter=jitter, trials=trials, seed=seed, fix_rate=fix_rate),
        *_record_lines(records),
    ]

    fit_lines = [
        "# femprob fem fits",
        _params(rate_window=rate_window, validate_rates=validate_rates),
        "order,constant,rate,residual",
    ]
    rates_ok = True
    for order in orders:
        try:
            fitted = fit_constant(records, order, fix_rate=fix_rate)
        except InsufficientDataError as exc:
            fit_lines.append(f"# order {order}: fit refused: {exc}")
            click.echo(f"order {order}: fit refused: {exc}", err=True)
            rates_ok = False
            continue
        fit_lines.append(_row(order, fitted.constant, fitted.rate, fitted.residual))
        if not fitted.rate_consistent(rate_window):
            rates_ok = False
            click.echo(
                f"order {order}: fitted rate {fitted.rate:.4f} outside"
                f" [{order - rate_window:.2f}, {order + rate_window:.2f}]",
                err=True,
            )

    if out == fit_out or (
        "-" not in (out, fit_out) and Path(out).resolve() == Path(fit_out).resolve()
    ):
        _emit(out, record_lines + fit_lines)
    else:
        _emit(out, record_lines, (fit_out, fit_lines))
    return ["fitted rates failed validation"] if validate_rates and not rates_ok else []


@main.command()
@_problem_option
@click.option("--order-low", type=click.IntRange(1, MAX_ORDER), default=1)
@click.option("--order-high", type=click.IntRange(1, MAX_ORDER), default=2)
@click.option("--n-list", default="2,3,4,6,8,12,16,24,32,48,64", callback=_n_list,
              help="Comma-separated element counts.")
@click.option("--jitter", type=_jitter, default=0.3)
@click.option("--trials", type=_count, default=100, help="Mesh pairs per element count.")
@click.option("--validate-crossing/--no-validate-crossing", default=False)
@click.option("--crossing-factor", type=_Finite(1.0), default=2.0)
@click.option("--min-final-p", type=_Finite(0.0, 1.0), default=0.95)
@_seed_option
@_out_option
@_config_option
def compare(problem, order_low, order_high, n_list, jitter, trials, validate_crossing,
            crossing_factor, min_final_p, seed, out):
    """Observed superiority frequencies against the fitted sigmoid model.

    Fits both error constants (rates pinned to the element orders) from the
    sweep's own records, reports the fitted crossover and the empirical
    0.5-crossing, and optionally validates their agreement.
    """
    # `study` first, as in `fem`
    from .study import estimate_half_crossing, fit_constant, superiority_sweep
    from .laws import ElementPair, prob_sigmoid
    from .problems import get_problem

    problem = get_problem(problem)
    sweeps = _each_point(
        lambda n: superiority_sweep(problem, order_low, order_high, [n], trials, jitter, seed),
        n_list,
    )
    points = [point for sweep_points, _ in sweeps for point in sweep_points]
    records = [record for _, sweep_records in sweeps for record in sweep_records]
    fitted_low = fit_constant(records, order_low, fix_rate=True)
    fitted_high = fit_constant(records, order_high, fix_rate=True)
    pair = ElementPair.from_constants(
        fitted_low.constant, order_low, fitted_high.constant, order_high
    )
    h_means = [p.h_mean for p in points]
    p_hats = [p.estimate.p_hat for p in points]
    crossing = estimate_half_crossing(h_means, p_hats)

    lines = [
        "# femprob compare",
        _params(problem=problem.name, order_low=order_low, order_high=order_high),
        _params(n_list=n_list, trials=trials, jitter=jitter, seed=seed),
        _params(c_low_fitted=fitted_low.constant, c_high_fitted=fitted_high.constant),
        _params(h_star_fitted=pair.h_star),
        _params(h_crossing_empirical=crossing),
        _params(crossing_factor=crossing_factor, min_final_p=min_final_p,
                validate=validate_crossing),
        "n,h_mean,p_hat,std_error,p_model",
    ]
    lines.extend(
        _row(point.n_elements, point.h_mean, point.estimate.p_hat, point.estimate.std_error,
             prob_sigmoid(pair, point.h_mean))
        for point in points
    )
    _emit(out, lines)

    click.echo(
        f"fitted h* = {pair.h_star:.6g}; empirical 0.5-crossing = "
        + (f"{crossing:.6g}" if crossing is not None else "not observed"),
        err=True,
    )
    failures = []
    if validate_crossing:
        if crossing is None:
            failures.append("the sweep never crossed 1/2")
        elif (ratio := max(crossing / pair.h_star, pair.h_star / crossing)) > crossing_factor:
            failures.append(f"crossing/h* ratio {ratio:.3f} exceeds {crossing_factor:g}")
        if p_hats[-1] < min_final_p:
            failures.append(f"finest-mesh frequency {p_hats[-1]:.3f} below {min_final_p:g}")
    return failures


if __name__ == "__main__":
    main()
