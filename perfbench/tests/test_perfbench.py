"""Tests of the benchmark's own code.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import femprob  # noqa: E402
import procs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from femprob.problems import get_problem  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans_ = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 3.0, 5.0, 0]]
    assert spans.self_times(spans_)[0] == 6.0


def test_summarize_adds_only_outermost_spans_of_a_name():
    spans_ = [
        ["laws", 0.0, 4.0, -1],
        ["laws", 1.0, 2.0, 0],
        ["rng", 2.5, 3.0, 0],
    ]
    summary = spans.summarize(spans_)
    assert summary["laws.s"] == 4.0
    assert summary["laws.self_s"] == (4.0 - 1.0 - 0.5) + 1.0
    assert summary["rng.s"] == summary["rng.self_s"] == 0.5


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "femprob" or name.startswith("femprob.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_replace_calling_modules_and_are_restored():
    before = _bindings()
    tracer = spans.Tracer()
    problem = get_problem("sine")
    with spans.installed(tracer):
        assert femprob.study.assemble_solve is not before[("femprob.fem", "assemble_solve")]
        assert femprob.mesh.uniforms.__wrapped__ is before[("femprob.rng", "uniforms")]
        femprob.study.convergence_study(problem, 2, [4, 8, 16], 0.3, 2, 5)
    assert tracer.counts["fem.assemble_solve.calls"] == 6
    assert tracer.counts["mesh.build_mesh.calls"] == 6
    assert _bindings() == before


def test_wrappers_are_restored_when_the_run_raises():
    before = _bindings()
    with pytest.raises(femprob.ParameterError):
        with spans.installed(spans.Tracer()):
            femprob.study.convergence_study(get_problem("sine"), 99, [4], 0.3, 1, 5)
    assert _bindings() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_has_exact_counts_and_unchanged_output(name):
    workload = workloads.WORKLOADS[name]
    problem = get_problem(workload.problem) if workload.problem else None
    tracer = spans.Tracer(workload.residual_stride)
    traced = spans.traced_problem(problem, tracer) if problem else None
    tracer.reset()
    with spans.installed(tracer):
        out = workload.run(traced, 2026)
    for key, want in workload.expected_counts.items():
        assert tracer.counts[key] == want, key
    assert workloads.digest(out) == workloads.digest(workload.run(problem, 2026))
    assert workload.check(out) == []


def test_expected_counts_are_the_documented_numbers():
    counts = {name: w.expected_counts for name, w in workloads.WORKLOADS.items()}
    assert counts["compare_small"] == {"fem.assemble_solve.calls": 4800}
    assert counts["fem_large"] == {
        "fem.assemble_solve.calls": 28,
        "fem.assemble_solve.dofs": 34 * (1024 + 4096 + 16384 + 65536) + 28,
    }
    assert counts["mc_sweep"] == {
        "oracle.mc_estimate.calls": 20,
        "rng.uniforms.draws": 4 * 10**7,
    }


def test_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names + metrics:
        assert NAME.fullmatch(name), name
    assert len(set(metrics)) == len(metrics)
    assert sorted(names) == sorted(workloads.WORKLOADS)


def test_compare_reports_a_crossing_more_than_a_factor_2_from_h_star_as_a_defect():
    out = {"crossing": 0.2, "h_star": 0.5, "p_hat": [0.4, 0.99]}
    assert workloads.defects_compare(out | {"crossing": 0.3}) == []
    assert workloads.defects_compare(out) == ["crossing/h* ratio 2.5 exceeds 2"]
    assert workloads.check_compare(out) == []
    assert workloads.check_compare(out | {"crossing": None}) != []
    assert workloads.check_compare(out | {"p_hat": [0.4, 0.9]}) != []


def test_err_rises_counts_rising_steps_per_order():
    errors = [1.0, 0.5, 0.6, 0.7] + [1e-3, 1e-4, 1e-5, 1e-6] * 6
    assert workloads.err_rises({"errors": errors}) == 2


def test_import_seconds_uses_outermost_imports_of_each_package():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |       scipy",
            "import time:       400 |        450 |     scipy.linalg",
            "import time:        10 |        760 |   femprob.fem",
            "import time:         5 |        765 | femprob",
        ]
    )
    got = procs.import_seconds(report, ("numpy", "scipy", "click"))
    assert got == pytest.approx({"numpy": 300e-6, "scipy": 450e-6, "click": 0.0})
    assert procs.import_self_seconds(report, "femprob") == pytest.approx(15e-6)


def test_peak_rss_is_the_childs_own_not_this_process_peak(tmp_path):
    ballast = np.ones(20_000_000)  # 160 MB resident in this process
    child = procs.spawn_measured(["-c", "pass"], tmp_path)
    del ballast
    assert child.returncode == 0
    assert 0 < child.maxrss_kib < 100 * 1024
    assert child.wall_s > 0.0


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_metric_of_the_mode(trace, section):
    done = _run_bench(ROOT, "--workload", "mc_sweep", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "mc_sweep", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
