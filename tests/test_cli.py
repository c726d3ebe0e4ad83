"""End-to-end CLI behavior through real subprocesses, plus in-process checks
of the output writer."""

import contextlib
import itertools
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import pytest
from click.testing import CliRunner

from femprob import ParameterError, _split, cli, convergence_study, get_problem

SINE = get_problem("sine")


def run_cli(*args, expect=0):
    result = subprocess.run(
        [sys.executable, "-m", "femprob.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == expect, (
        f"exit {result.returncode} != {expect}\nstdout:\n{result.stdout}"
        f"\nstderr:\n{result.stderr}"
    )
    return result


def data_rows(text):
    return [line for line in text.strip().split("\n") if not line.startswith("#")][1:]


class TestLawCommand:
    def test_grid_shape_and_monotonicity(self):
        result = run_cli(
            "law", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.05, "--h-max", 2, "--points", 200,
        )
        rows = data_rows(result.stdout)
        assert len(rows) == 200
        sigmoid = [float(r.split(",")[2]) for r in rows]
        assert all(a > b for a, b in zip(sigmoid, sigmoid[1:]))

    def test_row_at_crossover(self):
        # grid starts exactly at the crossover 0.5
        result = run_cli(
            "law", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.5, "--h-max", 2, "--points", 50,
        )
        first = data_rows(result.stdout)[0].split(",")
        assert float(first[0]) == 0.5
        assert abs(float(first[2]) - 0.5) <= 1e-12

    def test_single_point_grid(self):
        result = run_cli(
            "law", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.5, "--h-max", 0.5, "--points", 1,
        )
        assert data_rows(result.stdout) == ["0.5,0.5,0.5"]

    def test_invalid_parameters_diagnosed(self):
        result = run_cli(
            "law", "--ck", -1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.1, "--h-max", 1, expect=2,
        )
        assert "error:" in result.stderr

    def test_seed_is_not_an_option(self, tmp_path):
        # the closed-form laws draw nothing, so a seed would be silently unused
        result = run_cli(
            "law", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.1, "--h-max", 1, "--seed", 3, expect=2,
        )
        assert "--seed" in result.stderr
        config = tmp_path / "law.cfg"
        config.write_text("ck=1\nk=1\ncm=2\nm=2\nh_min=0.1\nh_max=1\nseed=3\n")
        result = run_cli("law", "--config", config, expect=2)
        assert result.stderr.startswith("error: unknown config key 'seed'")


class TestMcCommand:
    def test_validation_passes_at_scale(self, tmp_path):
        out = tmp_path / "mc.csv"
        run_cli(
            "mc", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.1, "--h-max", 1.5, "--points", 8,
            "--trials", 50000, "--seed", 7, "--out", out,
        )
        rows = data_rows(out.read_text())
        assert len(rows) == 8
        assert all(r.endswith(",true") for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--ck", 1, "--k", 1, "--cm", 3, "--m", 3,
                "--h-min", 0.2, "--h-max", 1.0, "--points", 5,
                "--trials", 20000, "--seed", 99]
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_wide_band_at_tiny_trials(self):
        result = run_cli(
            "mc", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.5, "--h-max", 0.5, "--points", 1,
            "--trials", 100, "--seed", 3, "--no-validate",
        )
        std_error = float(data_rows(result.stdout)[0].split(",")[3])
        assert std_error == pytest.approx(0.05, abs=0.01)

    def test_validation_failure_exits_nonzero(self, tmp_path):
        # seed 4 puts one of these six points outside the 3-sigma band
        out = tmp_path / "fail.csv"
        result = run_cli(
            "mc", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.1, "--h-max", 1.5, "--points", 6,
            "--trials", 150, "--seed", 4, "--out", out, expect=1,
        )
        assert "sigma band" in result.stderr
        assert ",false" in out.read_text()


class TestFemCommand:
    def test_records_and_fits_written(self, tmp_path):
        out = tmp_path / "records.csv"
        run_cli(
            "fem", "--problem", "sine", "--orders", "1,2",
            "--n-list", "8,16,32,64", "--out", out,
        )
        fit_out = tmp_path / "records_fit.csv"
        assert fit_out.exists()
        rows = data_rows(out.read_text())
        assert len(rows) == 8
        fit_rows = data_rows(fit_out.read_text())
        rates = {int(r.split(",")[0]): float(r.split(",")[2]) for r in fit_rows}
        assert abs(rates[1] - 1.0) <= 0.15
        assert abs(rates[2] - 2.0) <= 0.15

    def test_contained_solution_fit_refused(self, tmp_path):
        out = tmp_path / "poly.csv"
        result = run_cli(
            "fem", "--problem", "poly2", "--orders", "2",
            "--n-list", "4,8,16", "--out", out,
        )
        assert "fit refused" in result.stderr
        assert "insufficient dynamic range" in result.stderr
        fit_text = (tmp_path / "poly_fit.csv").read_text()
        assert "fit refused" in fit_text
        # all errors at rounding level
        errors = [float(r.split(",")[3]) for r in data_rows(out.read_text())]
        assert max(errors) <= 1e-12

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fem", "--problem", "sine3", "--orders", "1",
                "--n-list", "4,8,16", "--jitter", 0.3, "--trials", 2, "--seed", 12]
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_fit.csv").read_bytes() == (tmp_path / "b_fit.csv").read_bytes()

    def test_one_file_spelled_two_ways(self, tmp_path):
        # records and fits share one file however its path is spelled
        args = ["fem", "--problem", "sine", "--orders", "1", "--n-list", "4,8,16"]
        run_cli(*args, "--out", tmp_path / "a.csv", "--fit-out", tmp_path / "a.csv")
        run_cli(*args, "--out", tmp_path / "b.csv", "--fit-out", f"{tmp_path}/./b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]

    def test_unknown_problem_diagnosed(self):
        result = run_cli("fem", "--problem", "warp", expect=2)
        assert "unknown problem" in result.stderr

    def test_unknown_problem_is_one_plain_line(self):
        result = run_cli("fem", "--problem", "sine0", expect=2)
        assert result.stderr == (
            "error: unknown problem 'sine0'; available: sine, poly2, poly3, poly4"
            " and sineN for an integer N from 1 to 2617, or a larger N below 10**307"
            " whose sin(N*pi) rounds to within 1e-12 of 0\n"
        )

    @pytest.mark.parametrize("digits", ["1" + "0" * 400, "9" * 5000],
                             ids=["float_overflow", "int_digit_limit"])
    def test_sine_frequency_too_long_is_bad_input(self, digits):
        # N*pi overflowed a float, or int() refused the digits: a traceback, exit 1
        result = run_cli("fem", "--problem", f"sine{digits}", "--orders", 1,
                         "--n-list", "4,8,16", expect=2)
        assert error_line(result).startswith(f"error: unknown problem 'sine{digits}'")


class TestRecordCsv:
    def test_header_and_shape(self):
        records = convergence_study(SINE, 1, [4, 8], 0.0, 1, seed=0)
        lines = cli._record_lines(records)
        assert lines[0] == "order,n_elements,h_max,error_h1,error_h1_semi,seed"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "4"
        assert float(first[2]) == 0.25

    def test_roundtrip_precision(self):
        records = convergence_study(SINE, 2, [8], 0.3, 1, seed=42)
        row = cli._record_lines(records)[1].split(",")
        assert float(row[2]) == records[0].h_max
        assert float(row[3]) == records[0].error_h1


class TestCompareCommand:
    def test_zero_jitter_degenerate_frequencies(self, tmp_path):
        out = tmp_path / "cmp.csv"
        run_cli(
            "compare", "--problem", "sine", "--order-low", 1, "--order-high", 2,
            "--n-list", "4,8,16,32", "--trials", 5, "--jitter", 0, "--out", out,
        )
        p_hats = {float(r.split(",")[2]) for r in data_rows(out.read_text())}
        assert p_hats <= {0.0, 1.0}

    def test_headers_report_fit_and_crossing(self, tmp_path):
        out = tmp_path / "cmp.csv"
        run_cli(
            "compare", "--problem", "sine24", "--order-low", 1, "--order-high", 2,
            "--n-list", "2,3,4,6,8,12,16,24", "--trials", 30,
            "--jitter", 0.3, "--seed", 2026, "--out", out,
        )
        text = out.read_text()
        assert "# h_star_fitted=" in text
        assert "# h_crossing_empirical=" in text
        rows = data_rows(text)
        assert len(rows) == 8
        assert all(len(r.split(",")) == 5 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--problem", "sine8", "--order-low", 1, "--order-high", 2,
                "--n-list", "2,4,8", "--trials", 10, "--jitter", 0.25, "--seed", 5]
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_supplies_parameters(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# reference pair\nck = 1\nk = 1\ncm = 2\nm = 2\n"
            "h-min = 0.5\nh_max = 0.5\npoints = 1\n"
        )
        result = run_cli("law", "--config", config)
        assert data_rows(result.stdout) == ["0.5,0.5,0.5"]

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("ck=1\nk=1\ncm=2\nm=2\nh_min=0.5\nh_max=0.5\npoints=1\n")
        result = run_cli("law", "--config", config, "--cm", 8)
        # crossover moves to 1/8
        assert "# h_star=0.125" in result.stdout

    def test_malformed_config_diagnosed(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        result = run_cli("law", "--config", config, expect=2)
        assert "key=value" in result.stderr

    def test_out_into_missing_directory_diagnosed(self, tmp_path):
        result = run_cli(
            "law", "--ck", 1, "--k", 1, "--cm", 2, "--m", 2,
            "--h-min", 0.1, "--h-max", 1, "--out", tmp_path / "missing" / "law.csv",
            expect=2,
        )
        assert result.stderr.startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["law", "mc", "fem", "compare"])
    def test_unknown_key_rejected(self, tmp_path, command):
        config = tmp_path / "typo.cfg"
        config.write_text("poitns=50\n")
        result = run_cli(command, "--config", config, expect=2)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown config key 'poitns'")
        assert f"femprob {command}" in lines[0]

    def test_every_flag_is_a_config_key(self, tmp_path):
        config = tmp_path / "mc.cfg"
        config.write_text(
            "ck=1\nk=1\ncm=2\nm=2\nh-min=0.5\nh_max=0.5\npoints=1\ntrials=100\n"
            "sigma-factor=3\nvalidate=no\nseed=3\nspacing=log\n"
            f"out={tmp_path / 'mc.csv'}\n"
        )
        run_cli("mc", "--config", config)
        assert data_rows((tmp_path / "mc.csv").read_text())[0].startswith("0.5,0.5,")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as some editors write UTF-8
        text = "ck=1\nk=1\ncm=2\nm=2\nh_min=0.1\nh_max=1\npoints=5\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = run_cli("law", "--config", plain).stdout
        assert run_cli("law", "--config", marked).stdout == want

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a comment starts only at a `#` that begins the line or follows
        # whitespace, so a path may hold one
        config = tmp_path / "run.cfg"
        config.write_text(
            "# reference pair\nck=1\nk=1 # low order\ncm=2\t# tab before\nm=2\n"
            "h_min=0.5\nh_max=0.5\npoints=1\n"
            f"out={tmp_path / 'run#1.csv'}\n"
        )
        run_cli("law", "--config", config)
        assert not (tmp_path / "run").exists()
        assert data_rows((tmp_path / "run#1.csv").read_text()) == ["0.5,0.5,0.5"]

    def test_missing_required_parameter(self):
        result = run_cli("law", "--ck", 1, "--k", 1, "--cm", 2, expect=2)
        assert "missing required parameter --m" in result.stderr


def error_line(result):
    """The one `error:` line a rejected run must leave on stderr."""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: ")
    return lines[0]


PAIR = ["--ck", 1, "--k", 1, "--cm", 2, "--m", 2]
LAW = ["law", *PAIR, "--h-min", 0.1, "--h-max", 1]
MC_ONE_POINT = ["mc", *PAIR, "--h-min", 0.5, "--h-max", 0.5, "--points", 1,
                "--trials", 100]
FEM_SMALL = ["fem", "--problem", "sine", "--orders", 1, "--n-list", "4,8,16"]
COMPARE_SMALL = ["compare", "--problem", "sine", "--n-list", "2,4,8", "--trials", 5]


class TestUsageErrors:
    @pytest.mark.parametrize("args, flag", [
        (["law", "--k", "abc"], "--k"),
        ([*LAW, "--seed", 3], "--seed"),
        ([*LAW, "--spacing", "cubic"], "--spacing"),
    ])
    def test_click_usage_error_is_one_line(self, args, flag):
        assert flag in error_line(run_cli(*args, expect=2))

    def test_help_and_interrupt_behave_as_before(self, monkeypatch):
        bare = run_cli(expect=2)
        assert bare.stderr.startswith("Usage:") and "Commands:" in bare.stderr
        assert run_cli("--help").stdout.startswith("Usage:")

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("femprob.laws.prob_two_step", interrupt)
        result = CliRunner().invoke(cli.main, [str(a) for a in LAW])
        assert result.exit_code == 1
        assert result.output.strip() == "Aborted!"

    @pytest.mark.parametrize("text, key", [
        ("ck=1\nck=2\n", "'ck'"),
        ("h-min=0.5\nh_min=0.5\n", "'h_min'"),
    ])
    def test_duplicate_config_key_rejected(self, tmp_path, text, key):
        config = tmp_path / "dup.cfg"
        config.write_text("ck=1\nk=1\ncm=2\nm=2\nh_max=0.5\npoints=1\n" + text)
        assert key in error_line(run_cli("law", "--config", config, expect=2))

    @pytest.mark.parametrize("args, flag", [
        ([*MC_ONE_POINT, "--sigma-factor", -1], "--sigma-factor"),
        ([*MC_ONE_POINT, "--sigma-factor", "inf"], "--sigma-factor"),
        ([*FEM_SMALL, "--validate-rates", "--rate-window", -1], "--rate-window"),
        ([*COMPARE_SMALL, "--validate-crossing", "--min-final-p", "nan"], "--min-final-p"),
        ([*COMPARE_SMALL, "--validate-crossing", "--crossing-factor", 0.5],
         "--crossing-factor"),
    ])
    def test_bad_threshold_is_bad_input(self, args, flag):
        assert flag in error_line(run_cli(*args, expect=2))

    def test_bad_threshold_in_config_is_bad_input(self, tmp_path):
        config = tmp_path / "mc.cfg"
        config.write_text("sigma_factor=nan\n")
        result = run_cli(*MC_ONE_POINT, "--config", config, expect=2)
        assert "--sigma-factor" in error_line(result)

    @pytest.mark.parametrize("orders", ["", "1,1"])
    def test_empty_or_repeated_orders_rejected(self, tmp_path, orders):
        out = tmp_path / "rec.csv"
        result = run_cli(*FEM_SMALL, "--orders", orders, "--out", out, expect=2)
        assert "--orders" in error_line(result)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, flag, value", [
        (MC_ONE_POINT, "--trials", 0),
        (FEM_SMALL, "--trials", 0),
        (COMPARE_SMALL, "--trials", -1),
        (FEM_SMALL, "--jitter", 0.5),
        (COMPARE_SMALL, "--jitter", "nan"),
        (COMPARE_SMALL, "--jitter", -0.1),
        # above 2**53: no trial ran (exit 0), a traceback (exit 1) or no end
        (FEM_SMALL, "--trials", 2**63),
        (COMPARE_SMALL, "--trials", 2**64),
        (MC_ONE_POINT, "--trials", 2**63),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_trials_or_jitter_names_the_flag(self, tmp_path, args, flag, value, via):
        if via == "flag":
            result = run_cli(*args, flag, value, expect=2)
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]}={value}\n")
            if flag in args:  # an explicit flag would win over the config
                i = args.index(flag)
                args = args[:i] + args[i + 2:]
            result = run_cli(*args, "--config", config, expect=2)
        assert f"'{flag}'" in error_line(result)

    @pytest.mark.parametrize("command", ["law", "mc"])
    @pytest.mark.parametrize("ck, cm", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_crossover_out_of_range_is_bad_input(self, command, ck, cm):
        trials = ["--trials", 100] if command == "mc" else []
        result = run_cli(command, "--ck", ck, "--k", 1, "--cm", cm, "--m", 2,
                         "--h-min", 0.1, "--h-max", 1, *trials, expect=2)
        assert "crossover" in error_line(result)

    def test_config_that_is_not_utf8_is_bad_input(self, tmp_path):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"ck=1\nk=1\ncm=2\nm=2\nh_min=0.1\nh_max=1 # \xff\n")
        result = run_cli("law", "--config", config, expect=2)
        assert "latin1.cfg" in error_line(result)

    @pytest.mark.parametrize("command", ["law", "mc"])
    @pytest.mark.parametrize("h_max", [0.5, "1.0000000000000002"], ids=["below", "next_float"])
    def test_grid_needs_distinct_sizes(self, command, h_max):
        # three sizes between adjacent floats repeat one; `mc` estimated it twice
        trials = ["--trials", 100] if command == "mc" else []
        result = run_cli(command, *PAIR, "--h-min", 1, "--h-max", h_max, "--points", 3,
                         *trials, expect=2)
        assert "h-min must be < h-max" in error_line(result)

    @pytest.mark.parametrize("command", ["law", "mc"])
    @pytest.mark.parametrize("flag, value", [("--h-max", "inf"), ("--h-min", "nan")])
    def test_grid_bound_must_be_finite(self, command, flag, value):
        trials = ["--trials", 100] if command == "mc" else []
        result = run_cli(command, *PAIR, "--h-min", 0.1, "--h-max", 1, *trials,
                         flag, value, expect=2)
        assert flag in error_line(result)


    @pytest.mark.parametrize("args, flag", [
        ([*LAW, "--ck", -1], "--ck"),
        ([*LAW, "--cm", 0], "--cm"),
        ([*LAW, "--k", 0], "--k"),
        ([*MC_ONE_POINT, "--m", 0], "--m"),
        ([*COMPARE_SMALL, "--order-low", 0], "--order-low"),
        ([*COMPARE_SMALL, "--order-high", 11], "--order-high"),
        ([*FEM_SMALL, "--n-list", "0,4,8"], "--n-list"),
        ([*COMPARE_SMALL, "--n-list", "-2,4"], "--n-list"),
        ([*FEM_SMALL, "--orders", "1,11"], "--orders"),
        ([*FEM_SMALL, "--n-list", "8,4"], "--n-list"),
        ([*COMPARE_SMALL, "--n-list", ""], "--n-list"),
        ([*FEM_SMALL, "--n-list", "8,,16"], "--n-list"),
        ([*FEM_SMALL, "--orders", "1,,2"], "--orders"),
        ([*COMPARE_SMALL, "--n-list", "2,4,"], "--n-list"),
        ([*FEM_SMALL, "--n-list", f"2,3,{2**63}"], "--n-list"),  # an IndexError traceback
    ])
    def test_bad_value_names_its_flag(self, args, flag):
        assert f"'{flag}'" in error_line(run_cli(*args, expect=2))


class TestValidationFailures:
    @pytest.mark.parametrize("command, args, failures", [
        # seed 4 puts one of these six points outside the 3-sigma band
        (cli.mc, [*PAIR, "--h-min", 0.1, "--h-max", 1.5, "--points", 6, "--trials", 150,
                  "--seed", 4],
         ["Monte Carlo estimates left the sigma band"]),
        (cli.fem, ["--problem", "poly2", "--orders", 2, "--n-list", "4,8,16",
                   "--validate-rates"],
         ["fitted rates failed validation"]),
        (cli.compare, ["--problem", "sine24", "--n-list", "2,3,4,6,8", "--trials", 20,
                       "--validate-crossing", "--crossing-factor", 1, "--seed", 2026],
         ["crossing/h* ratio 1.066 exceeds 1", "finest-mesh frequency 0.900 below 0.95"]),
    ])
    def test_command_returns_its_failures_and_exits_1(self, tmp_path, command, args,
                                                       failures):
        args = [*map(str, args), "--out", str(tmp_path / "out.csv")]
        lines = run_cli(command.name, *args, expect=1).stderr.splitlines()
        # one `error:` line per failure, in order, after every other diagnostic
        assert [line for line in lines if line.startswith("error: ")] == [
            f"error: {failure}" for failure in failures
        ]
        assert lines[-len(failures):] == [f"error: {failure}" for failure in failures]
        assert command.main(args, standalone_mode=False) == failures


class TestCsvFormat:
    """The bytes every command writes, through the one rule `cli._cell`:
    flags as true/false, floats as %.17g, lists comma-joined, no value as
    none.  `law` and `mc` are pure float and integer arithmetic and pinned
    whole; of `fem` and `compare`, the lines and columns that hold no
    fitted value are."""

    def test_law_text(self):
        result = run_cli("law", *PAIR, "--h-min", 0.25, "--h-max", 1, "--points", 4,
                         "--spacing", "linear")
        assert result.stdout == (
            "# femprob law\n"
            "# ck=1 k=1 cm=2 m=2\n"
            "# h_star=0.5\n"
            "h,p_two_step,p_sigmoid\n"
            "0.25,1,0.75\n"
            "0.5,0.5,0.5\n"
            "0.75,0,0.33333333333333331\n"
            "1,0,0.25\n"
        )

    def test_mc_text(self):
        # seed 4 puts the last point outside the band, so both flags show
        result = run_cli("mc", *PAIR, "--h-min", 0.1, "--h-max", 1.5, "--points", 6,
                         "--trials", 150, "--seed", 4, expect=1)
        assert result.stdout == (
            "# femprob mc\n"
            "# ck=1 k=1 cm=2 m=2\n"
            "# trials=150 seed=4 sigma_factor=3 validate=true\n"
            "h,p_analytic,p_hat,std_error,within_3sigma\n"
            "0.10000000000000001,0.90000000000000002,0.89333333333333331,"
            "0.02520435000668058,true\n"
            "0.17187719275874791,0.82812280724125209,0.84666666666666668,"
            "0.029419066631718307,true\n"
            "0.29541769390627776,0.70458230609372219,0.68000000000000005,"
            "0.038087618285561863,true\n"
            "0.50775563919874078,0.49236282317712954,0.48666666666666669,"
            "0.040810310970163917,true\n"
            "0.8727161387290322,0.28646198793124644,0.35999999999999999,"
            "0.039191835884530853,true\n"
            "1.5,0.16666666666666666,0.26666666666666666,0.036106837353937604,false\n"
        )

    def test_fem_lines_without_fitted_values(self):
        # poly2 at order 2 sits on the rounding floor, so its fit is refused
        result = run_cli("fem", "--problem", "poly2", "--orders", "1,2", "--n-list", "4,8,16",
                         "--jitter", 0.3, "--trials", 2, "--seed", 12, "--validate-rates",
                         "--rate-window", 0.2, expect=1)
        lines = result.stdout.splitlines()
        refused = (
            "# order 2: fit refused: need >= 3 distinct mesh sizes for order 2 with errors"
            " above the rounding floor 1e-12, got 0; 6 of 6 records sit at the floor"
            " (insufficient dynamic range for a power-law fit)"
        )
        assert [line for line in lines if not line[0].isdigit()] == [
            "# femprob fem",
            "# problem=poly2 orders=1,2 n_list=4,8,16",
            "# jitter=0.29999999999999999 trials=2 seed=12 fix_rate=false",
            "order,n_elements,h_max,error_h1,error_h1_semi,seed",
            "# femprob fem fits",
            "# rate_window=0.20000000000000001 validate_rates=true",
            "order,constant,rate,residual",
            refused,
        ]
        # order, n_elements, h_max and seed of each record; the order of each fit
        h_max = ["0.28863842449521893", "0.37574380427704362", "0.17053470639043522",
                 "0.16780271886491582", "0.097368622055811704", "0.087495440850736045"]
        seeds = ["15416673298520035917", "8140838490288915695", "17115044049316938303",
                 "10236128778833088154", "3245711700458808471", "1215702122884865908"]
        rows = [line.split(",") for line in lines if line[0].isdigit()]
        assert [(r[0], r[1], r[2], r[5]) for r in rows[:12]] == [
            (order, n, h, seed)
            for order in "12"
            for n, h, seed in zip(["4", "4", "8", "8", "16", "16"], h_max, seeds)
        ]
        assert [r[0] for r in rows[12:]] == ["1"]

    @pytest.mark.parametrize("problem, n_list, seed, crossing", [
        ("sine24", "2,3,4,6,8", 2026, "0.37709614995959462"),
        ("sine", "2,4,8", 7, "none"),  # the sine sweep never crosses 1/2
    ])
    def test_compare_lines_without_fitted_values(self, problem, n_list, seed, crossing):
        result = run_cli("compare", "--problem", problem, "--n-list", n_list, "--trials", 20,
                         "--seed", seed)
        lines = result.stdout.splitlines()
        assert lines[:3] == [
            "# femprob compare",
            f"# problem={problem} order_low=1 order_high=2",
            f"# n_list={n_list} trials=20 jitter=0.29999999999999999 seed={seed}",
        ]
        assert lines[3].startswith("# c_low_fitted=") and " c_high_fitted=" in lines[3]
        assert lines[4].startswith("# h_star_fitted=")
        assert lines[5:8] == [
            f"# h_crossing_empirical={crossing}",
            "# crossing_factor=2 min_final_p=0.94999999999999996 validate=false",
            "n,h_mean,p_hat,std_error,p_model",
        ]
        assert [line.split(",")[0] for line in lines[8:]] == n_list.split(",")


class TestAtomicOutput:
    LAW = ["law", "--ck", "1", "--k", "1", "--cm", "2", "--m", "2",
           "--h-min", "0.1", "--h-max", "1", "--points", "5"]

    def test_overwrite_leaves_only_the_new_file(self, tmp_path):
        out = tmp_path / "law.csv"
        out.write_text("stale\n")
        run_cli(*self.LAW, "--out", out)
        assert [p.name for p in tmp_path.iterdir()] == ["law.csv"]
        assert len(data_rows(out.read_text())) == 5

    def test_failed_write_leaves_target_and_no_temp(self, tmp_path, monkeypatch):
        out = tmp_path / "law.csv"
        out.write_text("previous run\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", refuse)
        result = CliRunner().invoke(cli.main, [*self.LAW, "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.strip().splitlines() == [
            "error: [Errno 28] No space left on device"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["law.csv"]
        assert out.read_text() == "previous run\n"

    def test_missing_directory_names_the_target(self, tmp_path):
        out = tmp_path / "missing" / "law.csv"
        result = run_cli(*self.LAW, "--out", out, expect=2)
        assert result.stderr.strip().endswith(repr(str(out)))

    def test_failed_fit_write_leaves_no_records(self, tmp_path):
        result = run_cli(
            "fem", "--problem", "sine", "--orders", "1", "--n-list", "4,8,16",
            "--out", tmp_path / "rec.csv",
            "--fit-out", tmp_path / "missing" / "fit.csv",
            expect=2,
        )
        assert len(result.stderr.strip().splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_target_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cli._emit((str(pipe), ["a,b", "1,2"]))
            assert os.read(reader, 100) == b"a,b\n1,2\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(pipe.stat().st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fem_fits_follow_the_records_into_a_pipe(self, tmp_path):
        # the fit path was derived from the pipe's name, so the fits went to
        # a regular file `out_fit` beside it (and --out /dev/null made /dev/null_fit)
        args = ["fem", "--problem", "sine", "--orders", "1", "--n-list", "4,8,16"]
        pipe = tmp_path / "out"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()),
                                  daemon=True)
        reader.start()
        try:
            run_cli(*args, "--out", pipe)
        finally:
            with contextlib.suppress(OSError):  # frees a reader that no writer opened
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [run_cli(*args).stdout]
        assert "# femprob fem fits" in received[0]
        assert list(tmp_path.iterdir()) == [pipe]

    def test_outputs_naming_one_target_are_joined_in_order(self, tmp_path, monkeypatch,
                                                           capsys):
        monkeypatch.chdir(tmp_path)
        cli._emit(("x.csv", ["a"]), ("./x.csv", ["b"]))
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert (tmp_path / "x.csv").read_text() == "a\nb\n"
        cli._emit(("-", ["a"]), ("-", ["b"]))
        assert capsys.readouterr().out == "a\nb\n"


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _alive(pid):
    """True while process `pid` runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as stat_file:
            return stat_file.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


class TestPointRunner:
    """`_split._each_point` hands the odd points of `mc`, `fem` and `compare`
    to one forked worker when the process may use two CPUs (`_split._WORKERS`);
    nothing a caller sees depends on it, and no worker outlives its call."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked while a test runs."""
        pids = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @pytest.mark.skipif(sys.platform != "linux", reason="the worker forks on Linux only")
    @pytest.mark.parametrize("args", [
        ["mc", *PAIR, "--h-min", 0.1, "--h-max", 1.5, "--points", 5, "--trials", 20000,
         "--seed", 2026],
        ["fem", "--problem", "sine24", "--orders", "1,2,3", "--n-list", "8,16,32",
         "--jitter", 0.3, "--trials", 2, "--seed", 7],
        ["compare", "--problem", "sine24", "--n-list", "2,3,4,6,8", "--trials", 20,
         "--validate-crossing", "--seed", 2026],
    ])
    def test_worker_changes_no_byte(self, tmp_path, monkeypatch, forks, args):
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(_split, "_WORKERS", workers)
            out = tmp_path / f"{workers}.csv"
            result = CliRunner().invoke(cli.main, [*map(str, args), "--out", str(out)])
            files = sorted((p.name[1:], p.read_bytes()) for p in tmp_path.glob(f"{workers}*"))
            runs[workers] = result.exit_code, result.output, files
            assert len(forks) == workers - 1  # one worker at two CPUs, none at one
        assert runs[2] == runs[1]
        assert _no_child_left()

    @pytest.mark.parametrize("failing, first", [
        ({2, 3}, 2),  # the worker's order 2 precedes the caller's order 3
        ({3, 4}, 3),  # the caller's order 3 precedes the worker's order 4
        ({1, 2, 3, 4}, 1),
        ({4}, 4),
    ])
    def test_first_failing_point_in_point_order_is_the_error(self, monkeypatch, failing,
                                                            first):
        def study(problem, order, *args):
            if order in failing:
                raise ParameterError(f"order {order} fails")
            return convergence_study(problem, order, *args)

        monkeypatch.setattr("femprob.study.convergence_study", study)
        lines = {}
        for workers in (1, 2):
            monkeypatch.setattr(_split, "_WORKERS", workers)
            result = CliRunner().invoke(
                cli.main, ["fem", "--orders", "1,2,3,4", "--n-list", "4,8,16"]
            )
            assert result.exit_code == 2
            lines[workers] = result.stderr
        assert lines[2] == lines[1] == f"error: order {first} fails\n"
        assert _no_child_left()

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 29.8 GiB"), "Unable to allocate 29.8 GiB"),
        (MemoryError(), "MemoryError"),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_out_of_memory_is_one_error_line(self, monkeypatch, workers, error, line):
        # raised, never allocated: an overcommitting host may kill a real allocation
        def study(problem, order, *args):
            if order == 2:  # the worker's point at two CPUs
                raise error
            return convergence_study(problem, order, *args)

        monkeypatch.setattr("femprob.study.convergence_study", study)
        monkeypatch.setattr(_split, "_WORKERS", workers)
        result = CliRunner().invoke(cli.main, ["fem", "--orders", "1,2", "--n-list", "4,8,16"])
        assert (result.exit_code, result.stderr) == (2, f"error: {line}\n")
        assert _no_child_left()

    def test_points_come_back_in_order_and_the_worker_is_reaped(self, monkeypatch, forks):
        monkeypatch.setattr(_split, "_WORKERS", 2)
        assert _split._each_point(lambda x: x * x, [0.5, 1, 2, 3, 4]) == [0.25, 1, 4, 9, 16]
        assert _split._each_point(str, [7]) == ["7"]  # one point runs here, unforked
        assert len(forks) == (sys.platform == "linux") and _no_child_left()

    @pytest.mark.skipif(sys.platform != "linux", reason="the worker forks on Linux only")
    @pytest.mark.parametrize("failing", [None, 2, 3])  # the caller's item 2, the worker's 3
    def test_both_halves_run_their_blocks_inline(self, monkeypatch, forks, failing):
        # one level of parallelism: while the points are split, neither
        # process starts a helper thread, and the setting is restored after
        monkeypatch.setattr(_split, "_WORKERS", 2)

        def run(item):
            if item == failing:
                raise ParameterError(f"item {item} fails")
            return item, _split._WORKERS

        if failing is None:
            assert _split._each_point(run, [0, 1, 2, 3]) == [(0, 1), (1, 1), (2, 1), (3, 1)]
        else:
            with pytest.raises(ParameterError, match=f"^item {failing} fails$"):
                _split._each_point(run, [0, 1, 2, 3])
        assert _split._WORKERS == 2
        assert len(forks) == 1 and _no_child_left()

    def test_failure_in_the_workers_share_is_raised_and_reaped(self, monkeypatch):
        monkeypatch.setattr(_split, "_WORKERS", 2)

        def run(item):
            if item == 3:
                raise ValueError(f"point {item}")
            return item

        with pytest.raises(ValueError, match="^point 3$"):
            _split._each_point(run, list(range(6)))
        assert _no_child_left()

    @pytest.mark.skipif(sys.platform != "linux", reason="the worker forks on Linux only")
    def test_worker_that_ends_without_results_fails_its_first_point(self, monkeypatch):
        monkeypatch.setattr(_split, "_WORKERS", 2)

        def run(item):
            if item == 1:
                os._exit(3)  # runs in the worker only
            if item == 2:
                raise ValueError("point 2")
            return item

        with pytest.raises(ChildProcessError, match="ended with status 3"):
            _split._each_point(run, [0, 1, 2])
        with pytest.raises(ValueError, match="^point 2$"):
            _split._each_point(run, [2, 1])  # the caller's point 2 comes first
        assert _no_child_left()

    def test_interrupt_in_the_callers_share_kills_the_worker(self, monkeypatch, forks):
        monkeypatch.setattr(_split, "_WORKERS", 2)

        def run(item):
            if item == 0:
                raise KeyboardInterrupt
            time.sleep(60)  # the worker's point: only a kill ends it in time

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _split._each_point(run, [0, 1])
        assert time.monotonic() - start < 30
        assert _no_child_left()

    @pytest.mark.skipif(sys.platform != "linux", reason="the worker forks on Linux only")
    def test_killed_cli_leaves_no_worker(self):
        # the CLI announces its worker's pid, then is killed mid-sweep
        code = (
            "import os, sys\n"
            "from femprob import _split, cli\n"
            "_split._WORKERS = 2\n"
            "fork = os.fork\n"
            "def announced_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, file=sys.stderr, flush=True)\n"
            "    return pid\n"
            "os.fork = announced_fork\n"
            "cli.main(['compare', '--problem', 'sine24', '--n-list', '2,3,4,6,8,12,16,24',"
            " '--trials', '20000', '--out', os.devnull])\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        worker = None
        try:
            worker = int(proc.stderr.readline())
            time.sleep(0.3)
            assert proc.poll() is None and _alive(worker)  # still sweeping
            proc.kill()
            proc.wait(timeout=30)
            time.sleep(1.0)
            assert not _alive(worker)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stderr.close()
            if worker is not None and _alive(worker):
                os.kill(worker, signal.SIGKILL)



def _outcome(call):
    """What `call()` does: ("returned", its value) or ("raised", type, args)."""
    try:
        return "returned", call()
    except Exception as error:  # compared with a serial loop's, by type and args
        return "raised", type(error), error.args


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("count", range(1, 6))
def test_both_splits_match_a_serial_loop(monkeypatch, count, workers):
    # every subset of failing items: the forked worker's points and the helper
    # thread's blocks give what a serial loop returns, or raise what it raises,
    # and each half of the blocks stops at its first failure
    monkeypatch.setattr(_split, "_WORKERS", workers)
    items = list(range(count))
    step = workers  # the blocks of one half are `step` apart
    for failing in itertools.chain.from_iterable(
            itertools.combinations(items, size) for size in range(count + 1)):
        def run(item):
            if item in failing:
                raise ValueError(f"item {item}")
            return item * item

        serial = _outcome(lambda: [run(item) for item in items])
        assert _outcome(lambda: _split._each_point(run, items)) == serial
        ran, written = set(), {}

        def body(item):
            ran.add(item)
            written[item] = run(item)

        blocks = _outcome(lambda: _split._each_block(body, items))
        assert ran == {item for item in items
                       if not any(bad < item and (item - bad) % step == 0 for bad in failing)}
        if serial[0] == "raised":
            assert blocks == serial
        else:
            assert blocks == ("returned", None) and written == dict(enumerate(serial[1]))
    assert _no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the worker forks on Linux only")
@pytest.mark.parametrize("args", [
    ["mc", *PAIR, "--h-min", 0.1, "--h-max", 1.5, "--points", 4, "--trials", 1000],
    ["fem", "--problem", "sine24", "--orders", "1,2", "--n-list", "8,16",
     "--fit-out", os.devnull],
    ["compare", "--problem", "sine24", "--n-list", "2,4,8", "--trials", 10],
], ids=["mc", "fem", "compare"])
def test_cli_forks_its_worker_from_one_thread(args):
    # Python >= 3.12 warns of os.fork() in a process of several OS threads,
    # counted once the before-fork hooks have run.  numpy's OpenBLAS starts a
    # thread pool at import, but its own fork handler parks the pool, so the
    # CLI process is one thread at each fork; a BLAS that kept its threads
    # across fork() would draw the warning
    code = (
        "import os, sys\n"
        "from femprob import _split, cli\n"
        "_split._WORKERS = 2\n"
        "def threads():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return [line.split()[1] for line in status if line.startswith('Threads:')]\n"
        "os.register_at_fork(after_in_parent=lambda: print('threads at fork', *threads(),"
        " file=sys.stderr, flush=True))\n"
        f"cli.main({list(map(str, args))!r} + ['--out', os.devnull])\n"
    )
    result = subprocess.run([sys.executable, "-W", "always::DeprecationWarning", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    forks = [line for line in result.stderr.splitlines() if line.startswith("threads at fork")]
    assert forks == ["threads at fork 1"]
    assert "multi-threaded" not in result.stderr  # the 3.12 warning's words


def _loaded_after(code, package="scipy"):
    """The modules of `package` (and `package` itself) that a fresh
    interpreter holds after running `code`."""
    code += (f"\nimport sys\nprint(*sorted(m for m in sys.modules"
             f" if m == {package!r} or m.startswith({package + '.'!r})))")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.split()


def test_cli_import_leaves_scipy_unloaded():
    assert _loaded_after("import femprob.cli") == []


def test_solve_leaves_scipy_unloaded():
    code = (
        "import femprob as fp; p = fp.get_problem('sine');"
        " fp.h1_error(fp.assemble_solve(fp.build_mesh(8, 0.3, 1), 3, p), p)"
    )
    assert _loaded_after(code) == []


def test_cli_import_loads_only_the_command_group():
    # start-up parses argv with the group alone; each command imports the
    # library modules it runs
    assert _loaded_after("import femprob.cli", "femprob") == [
        "femprob", "femprob.cli", "femprob.errors"]


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # `problems` builds its polynomials with it; `law` and `--help` need neither
    assert _loaded_after("import femprob.cli", "numpy.polynomial") == []


def test_law_loads_only_the_laws():
    code = (
        "import os\n"
        "from femprob import cli\n"
        "try:\n"
        f"    cli.main({list(map(str, LAW))!r} + ['--out', os.devnull])\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
    )
    assert _loaded_after(code, "femprob") == [
        "femprob", "femprob.cli", "femprob.errors", "femprob.laws"]


# what `fem` and `compare` run and `mc` does not
SOLVER = ["femprob.fem", "femprob.mesh", "femprob.problems", "femprob.study", "numpy.polynomial"]


@pytest.mark.skipif(sys.platform != "linux", reason="the worker forks on Linux only")
@pytest.mark.parametrize("args, unloaded", [
    (["mc", *PAIR, "--h-min", 0.1, "--h-max", 1.5, "--points", 20, "--trials", 1000000,
      "--seed", 42], SOLVER),  # the README command
    (["fem", "--problem", "sine24", "--orders", "1,2", "--n-list", "8,16",
      "--fit-out", os.devnull], []),
    (["compare", "--problem", "sine24", "--n-list", "2,4,8", "--trials", 10], []),
], ids=["mc", "fem", "compare"])
def test_every_module_is_loaded_before_the_fork(args, unloaded):
    # the worker runs what the CLI process runs, so a module the CLI process
    # imports after the fork would be imported, and compiled, twice; and the
    # Monte Carlo command, which solves nothing, loads no solver module
    code = (
        "import json, os, sys\n"
        "from femprob import _split, cli\n"
        "_split._WORKERS = 2\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith('femprob') or m == 'numpy.polynomial')\n"
        "at_fork = []\n"
        "os.register_at_fork(before=lambda: at_fork.append(loaded()))\n"
        "try:\n"
        f"    cli.main({list(map(str, args))!r} + ['--out', os.devnull])\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
        "print(json.dumps([at_fork, loaded()]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    at_fork, loaded = json.loads(result.stdout)
    assert at_fork == [loaded]
    assert sorted(set(unloaded) & set(loaded)) == []


@pytest.mark.skipif(sys.platform != "linux", reason="only the Linux CLI forks")
def test_no_library_call_forks():
    # `_split._each_point` forks, and only the CLI calls it: a library call,
    # here of several quadrature blocks, splits on a helper thread at most
    code = (
        "import os\n"
        "from femprob import _split, convergence_study, get_problem\n"
        "from femprob.laws import ElementPair\n"
        "from femprob.oracle import mc_estimate\n"
        "from femprob.study import superiority_sweep\n"
        "_split._WORKERS = 2\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        "sine24 = get_problem('sine24')\n"
        "superiority_sweep(sine24, 1, 2, [2, 4, 8], 20, 0.3, 7)\n"
        "convergence_study(sine24, 1, [20000], 0.3, 1, 7)  # several blocks a call\n"
        "mc_estimate(ElementPair.from_constants(1, 1, 2, 2), 0.5, 100000, 7)\n"
        "print(len(forks))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


@pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
def test_cli_import_leaves_process_pools_unloaded(module):
    # the CLI forks its one worker itself; a pool module's import, or its
    # spawn start method's fresh interpreter, would cost every CLI start
    assert _loaded_after("import femprob.cli", module) == []
