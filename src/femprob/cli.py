"""Command-line front end emitting plot-ready CSV for every experiment.

Four subcommands: `law` tabulates the closed-form probability laws, `mc`
validates the sigmoid law against Monte Carlo, `fem` runs convergence
studies and fits error constants, and `compare` runs the end-to-end
superiority experiment on real finite-element errors.

All data goes to the output path (default stdout) as CSV with `#` comment
headers recording parameters and validation thresholds; diagnostics go to
stderr.  Reruns with identical flags and seed produce byte-identical files.
Exit codes: 0 success, 1 a requested validation failed, 2 invalid usage.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click
import numpy as np

from .errors import FemProbError, InsufficientDataError, ParameterError
from .laws import ElementPair, prob_sigmoid, prob_two_step, tabulate_curve
from .oracle import mc_estimate
from .problems import get_problem
from .rng import derive_key
from .study import (
    convergence_study,
    estimate_half_crossing,
    fit_constant,
    records_to_csv,
    superiority_sweep,
)

_DEFAULT_SEED = 42


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path: str | None) -> dict[str, str]:
    """Parse `key=value` lines; `#` comments and blank lines are ignored.

    The keys are the long flag names of the running subcommand (`-` or `_`
    spelled); any other key is rejected rather than silently ignored.
    """
    if path is None:
        return {}
    command = click.get_current_context().command
    known = {
        param.opts[0].lstrip("-").replace("-", "_")
        for param in command.params
        if param.name != "config_path"
    }
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {raw!r} is not key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    unknown = sorted(values.keys() - known)
    if unknown:
        raise ParameterError(
            f"unknown config key {', '.join(map(repr, unknown))} for"
            f" 'femprob {command.name}'; known keys: {', '.join(sorted(known))}"
        )
    return values


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _cast_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _resolve(config: dict[str, str], name: str, flag, cast, default=None, required=False):
    """Flag value if given, else config file value, else default."""
    if flag is not None:
        return flag
    if name in config:
        text = config[name]
        try:
            return _cast_bool(text) if cast is bool else cast(text)
        except ValueError as exc:
            raise ParameterError(f"config {name}={text!r}: {exc}") from exc
    if required and default is None:
        raise ParameterError(f"missing required parameter --{name.replace('_', '-')}")
    return default


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ParameterError(f"expected a comma-separated integer list: {exc}") from exc


def _h_grid(h_min: float, h_max: float, points: int, spacing: str) -> np.ndarray:
    if points < 1:
        raise ParameterError(f"points must be >= 1, got {points}")
    if h_min <= 0.0 or h_max <= 0.0:
        raise ParameterError("h-min and h-max must be positive")
    if points == 1:
        if h_min != h_max:
            raise ParameterError("a single-point grid needs h-min == h-max")
        return np.array([h_min])
    if h_min >= h_max:
        raise ParameterError("h-min must be < h-max")
    if spacing == "log":
        return np.geomspace(h_min, h_max, points)
    if spacing == "linear":
        return np.linspace(h_min, h_max, points)
    raise ParameterError(f"spacing must be 'log' or 'linear', got {spacing!r}")


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


def _run(body):
    """Run a command body; bad input or an unusable file path exits 2."""
    try:
        body()
    except (FemProbError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Probabilistic accuracy comparison of low- vs high-order elements."""


_seed_option = click.option("--seed", type=int, default=None, help="64-bit experiment seed.")
_out_option = click.option("--out", default=None, help="Output path, '-' for stdout.")
_config_option = click.option(
    "--config", "config_path", default=None, help="key=value file; flags override it."
)


def _pair_from(config, ck, k, cm, m) -> ElementPair:
    ck = _resolve(config, "ck", ck, float, required=True)
    k = _resolve(config, "k", k, int, required=True)
    cm = _resolve(config, "cm", cm, float, required=True)
    m = _resolve(config, "m", m, int, required=True)
    return ElementPair.from_constants(ck, k, cm, m)


@main.command()
@click.option("--ck", type=float, default=None, help="Low-order error constant.")
@click.option("--k", type=int, default=None, help="Low polynomial order.")
@click.option("--cm", type=float, default=None, help="High-order error constant.")
@click.option("--m", type=int, default=None, help="High polynomial order.")
@click.option("--h-min", type=float, default=None)
@click.option("--h-max", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--spacing", type=click.Choice(["log", "linear"]), default=None)
@_out_option
@_config_option
def law(ck, k, cm, m, h_min, h_max, points, spacing, out, config_path):
    """Tabulate both closed-form laws on a mesh-size grid."""

    def body():
        config = _load_config(config_path)
        pair = _pair_from(config, ck, k, cm, m)
        grid = _h_grid(
            _resolve(config, "h_min", h_min, float, required=True),
            _resolve(config, "h_max", h_max, float, required=True),
            _resolve(config, "points", points, int, default=100),
            _resolve(config, "spacing", spacing, str, default="log"),
        )
        out_path = _resolve(config, "out", out, str, default="-")
        step = tabulate_curve(pair, grid, prob_two_step)
        smooth = tabulate_curve(pair, grid, prob_sigmoid)
        lines = [
            "# femprob law",
            f"# ck={_fmt(pair.low.constant)} k={pair.low.order}"
            f" cm={_fmt(pair.high.constant)} m={pair.high.order}",
            f"# h_star={_fmt(pair.h_star)}",
            "h,p_two_step,p_sigmoid",
        ]
        for h, p_step, p_sig in zip(grid, step, smooth):
            lines.append(f"{_fmt(h)},{_fmt(p_step)},{_fmt(p_sig)}")
        _emit(out_path, lines)

    _run(body)


@main.command()
@click.option("--ck", type=float, default=None, help="Low-order error constant.")
@click.option("--k", type=int, default=None, help="Low polynomial order.")
@click.option("--cm", type=float, default=None, help="High-order error constant.")
@click.option("--m", type=int, default=None, help="High polynomial order.")
@click.option("--h-min", type=float, default=None)
@click.option("--h-max", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--spacing", type=click.Choice(["log", "linear"]), default=None)
@click.option("--trials", type=int, default=None, help="Monte Carlo trials per grid point.")
@click.option("--sigma-factor", type=float, default=None, help="Validation band half-width.")
@click.option("--validate/--no-validate", "validate", default=None)
@_seed_option
@_out_option
@_config_option
def mc(ck, k, cm, m, h_min, h_max, points, spacing, trials, sigma_factor, validate,
       seed, out, config_path):
    """Monte Carlo validation of the sigmoid law over a grid.

    Exits nonzero if any grid point falls outside the sigma band (unless
    --no-validate).
    """

    def body():
        config = _load_config(config_path)
        pair = _pair_from(config, ck, k, cm, m)
        grid = _h_grid(
            _resolve(config, "h_min", h_min, float, required=True),
            _resolve(config, "h_max", h_max, float, required=True),
            _resolve(config, "points", points, int, default=20),
            _resolve(config, "spacing", spacing, str, default="log"),
        )
        n_trials = _resolve(config, "trials", trials, int, default=10**6)
        factor = _resolve(config, "sigma_factor", sigma_factor, float, default=3.0)
        check = _resolve(config, "validate", validate, bool, default=True)
        the_seed = _resolve(config, "seed", seed, int, default=_DEFAULT_SEED)
        out_path = _resolve(config, "out", out, str, default="-")

        lines = [
            "# femprob mc",
            f"# ck={_fmt(pair.low.constant)} k={pair.low.order}"
            f" cm={_fmt(pair.high.constant)} m={pair.high.order}",
            f"# trials={n_trials} seed={the_seed} sigma_factor={_fmt(factor)}"
            f" validate={str(check).lower()}",
            "h,p_analytic,p_hat,std_error,within_3sigma",
        ]
        all_within = True
        for index, h in enumerate(grid):
            p = prob_sigmoid(pair, float(h))
            estimate = mc_estimate(pair, float(h), n_trials, derive_key(the_seed, index))
            band = factor * np.sqrt(p * (1.0 - p) / n_trials)
            within = abs(estimate.p_hat - p) <= band
            all_within &= within
            lines.append(
                f"{_fmt(h)},{_fmt(p)},{_fmt(estimate.p_hat)},"
                f"{_fmt(estimate.std_error)},{str(within).lower()}"
            )
        _emit(out_path, lines)
        if check and not all_within:
            click.echo("error: Monte Carlo estimates left the sigma band", err=True)
            sys.exit(1)

    _run(body)


@main.command()
@click.option("--problem", "problem_name", default=None, help="Library problem name.")
@click.option("--orders", default=None, help="Comma-separated element orders.")
@click.option("--n-list", default=None, help="Comma-separated element counts.")
@click.option("--jitter", type=float, default=None)
@click.option("--trials", type=int, default=None, help="Meshes per element count.")
@click.option("--fix-rate/--free-rate", "fix_rate", default=None)
@click.option("--fit-out", default=None, help="Fit summary path (default: derived).")
@click.option("--validate-rates/--no-validate-rates", "validate_rates", default=None)
@click.option("--rate-window", type=float, default=None)
@_seed_option
@_out_option
@_config_option
def fem(problem_name, orders, n_list, jitter, trials, fix_rate, fit_out,
        validate_rates, rate_window, seed, out, config_path):
    """Convergence records plus power-law fits for each element order."""

    def body():
        config = _load_config(config_path)
        problem = get_problem(_resolve(config, "problem", problem_name, str, default="sine"))
        order_list = _parse_int_list(_resolve(config, "orders", orders, str, default="1,2,3"))
        counts = _parse_int_list(
            _resolve(config, "n_list", n_list, str, default="8,16,32,64,128,256,512")
        )
        beta = _resolve(config, "jitter", jitter, float, default=0.0)
        per_n = _resolve(config, "trials", trials, int, default=1)
        pinned = _resolve(config, "fix_rate", fix_rate, bool, default=False)
        check = _resolve(config, "validate_rates", validate_rates, bool, default=False)
        window = _resolve(config, "rate_window", rate_window, float, default=0.15)
        the_seed = _resolve(config, "seed", seed, int, default=_DEFAULT_SEED)
        out_path = _resolve(config, "out", out, str, default="-")
        fit_path = _resolve(config, "fit_out", fit_out, str, default=None)
        if fit_path is None:
            if out_path == "-":
                fit_path = "-"
            else:
                stem = Path(out_path)
                fit_path = str(stem.with_name(stem.stem + "_fit" + stem.suffix))

        records = []
        for order in order_list:
            records.extend(
                convergence_study(problem, order, counts, beta, per_n, the_seed)
            )

        head = [
            "# femprob fem",
            f"# problem={problem.name} orders={','.join(map(str, order_list))}"
            f" n_list={','.join(map(str, counts))}",
            f"# jitter={_fmt(beta)} trials={per_n} seed={the_seed}"
            f" fix_rate={str(pinned).lower()}",
        ]
        record_lines = head + records_to_csv(records).splitlines()

        fit_lines = [
            "# femprob fem fits",
            f"# rate_window={_fmt(window)} validate_rates={str(check).lower()}",
            "order,constant,rate,residual",
        ]
        rates_ok = True
        for order in order_list:
            try:
                fitted = fit_constant(records, order, fix_rate=pinned)
            except InsufficientDataError as exc:
                fit_lines.append(f"# order {order}: fit refused: {exc}")
                click.echo(f"order {order}: fit refused: {exc}", err=True)
                rates_ok &= not check
                continue
            fit_lines.append(
                f"{order},{_fmt(fitted.constant)},{_fmt(fitted.rate)},{_fmt(fitted.residual)}"
            )
            if abs(fitted.rate - order) > window:
                rates_ok &= not check
                click.echo(
                    f"order {order}: fitted rate {fitted.rate:.4f} outside"
                    f" [{order - window:.2f}, {order + window:.2f}]",
                    err=True,
                )

        if out_path == fit_path or (
            "-" not in (out_path, fit_path)
            and Path(out_path).resolve() == Path(fit_path).resolve()
        ):
            _emit(out_path, record_lines + fit_lines)
        else:
            _emit(out_path, record_lines, (fit_path, fit_lines))
        if check and not rates_ok:
            click.echo("error: fitted rates failed validation", err=True)
            sys.exit(1)

    _run(body)


@main.command()
@click.option("--problem", "problem_name", default=None, help="Library problem name.")
@click.option("--order-low", type=int, default=None)
@click.option("--order-high", type=int, default=None)
@click.option("--n-list", default=None, help="Comma-separated element counts.")
@click.option("--jitter", type=float, default=None)
@click.option("--trials", type=int, default=None, help="Mesh pairs per element count.")
@click.option("--validate-crossing/--no-validate-crossing", "validate_crossing", default=None)
@click.option("--crossing-factor", type=float, default=None)
@click.option("--min-final-p", type=float, default=None)
@_seed_option
@_out_option
@_config_option
def compare(problem_name, order_low, order_high, n_list, jitter, trials,
            validate_crossing, crossing_factor, min_final_p, seed, out, config_path):
    """Observed superiority frequencies against the fitted sigmoid model.

    Fits both error constants (rates pinned to the element orders) from the
    sweep's own records, reports the fitted crossover and the empirical
    0.5-crossing, and optionally validates their agreement.
    """

    def body():
        config = _load_config(config_path)
        problem = get_problem(_resolve(config, "problem", problem_name, str, default="sine"))
        k_low = _resolve(config, "order_low", order_low, int, default=1)
        k_high = _resolve(config, "order_high", order_high, int, default=2)
        counts = _parse_int_list(
            _resolve(config, "n_list", n_list, str, default="2,3,4,6,8,12,16,24,32,48,64")
        )
        per_n = _resolve(config, "trials", trials, int, default=100)
        beta = _resolve(config, "jitter", jitter, float, default=0.3)
        check = _resolve(config, "validate_crossing", validate_crossing, bool, default=False)
        factor = _resolve(config, "crossing_factor", crossing_factor, float, default=2.0)
        final_p = _resolve(config, "min_final_p", min_final_p, float, default=0.95)
        the_seed = _resolve(config, "seed", seed, int, default=_DEFAULT_SEED)
        out_path = _resolve(config, "out", out, str, default="-")

        points, records = superiority_sweep(
            problem, k_low, k_high, counts, per_n, beta, the_seed
        )
        fitted_low = fit_constant(records, k_low, fix_rate=True)
        fitted_high = fit_constant(records, k_high, fix_rate=True)
        pair = ElementPair.from_constants(
            fitted_low.constant, k_low, fitted_high.constant, k_high
        )
        h_means = [p.h_mean for p in points]
        p_hats = [p.estimate.p_hat for p in points]
        crossing = estimate_half_crossing(h_means, p_hats)

        lines = [
            "# femprob compare",
            f"# problem={problem.name} order_low={k_low} order_high={k_high}",
            f"# n_list={','.join(map(str, counts))} trials={per_n}"
            f" jitter={_fmt(beta)} seed={the_seed}",
            f"# c_low_fitted={_fmt(fitted_low.constant)}"
            f" c_high_fitted={_fmt(fitted_high.constant)}",
            f"# h_star_fitted={_fmt(pair.h_star)}",
            f"# h_crossing_empirical={_fmt(crossing) if crossing is not None else 'none'}",
            f"# crossing_factor={_fmt(factor)} min_final_p={_fmt(final_p)}"
            f" validate={str(check).lower()}",
            "n,h_mean,p_hat,std_error,p_model",
        ]
        for point in points:
            model = prob_sigmoid(pair, point.h_mean)
            lines.append(
                f"{point.n_elements},{_fmt(point.h_mean)},{_fmt(point.estimate.p_hat)},"
                f"{_fmt(point.estimate.std_error)},{_fmt(model)}"
            )
        _emit(out_path, lines)

        click.echo(
            f"fitted h* = {pair.h_star:.6g}; empirical 0.5-crossing = "
            + (f"{crossing:.6g}" if crossing is not None else "not observed"),
            err=True,
        )
        if check:
            ok = crossing is not None
            if ok:
                ratio = max(crossing / pair.h_star, pair.h_star / crossing)
                ok = ratio <= factor
                if not ok:
                    click.echo(
                        f"error: crossing/h* ratio {ratio:.3f} exceeds {factor:g}",
                        err=True,
                    )
            else:
                click.echo("error: the sweep never crossed 1/2", err=True)
            if p_hats[-1] < final_p:
                ok = False
                click.echo(
                    f"error: finest-mesh frequency {p_hats[-1]:.3f} below {final_p:g}",
                    err=True,
                )
            if not ok:
                sys.exit(1)

    _run(body)


if __name__ == "__main__":
    main()
