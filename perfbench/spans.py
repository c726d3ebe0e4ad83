"""In-memory spans around femprob's public functions, for the traced run.

The wrappers are installed from outside the library. Each function is
replaced in its defining module and in every femprob module that bound it
with ``from .x import y`` (``femprob.study.assemble_solve``,
``femprob.mesh.uniforms``, ...), and every original is put back afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from femprob.problems import Problem1D


class Tracer:
    """Spans ``[name, start, end, parent index or -1]`` plus counters, in memory."""

    def __init__(self, solve_stride: int = 1):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # every solve_stride-th assemble_solve result, for Galerkin residuals
        self.solve_stride = solve_stride
        self.solves: list = []
        self._open: list[int] = []

    def reset(self) -> None:
        # clear in place: the wrappers hold references to these containers
        self.spans.clear()
        self.counts.clear()
        self.solves.clear()
        self._open.clear()

    def wrap(self, name, fn, tally=None):
        """`fn` recording one span per call; `tally(tracer, result)` adds counts."""
        spans, counts, open_spans = self.spans, self.counts, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            counts[name + ".calls"] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if tally is not None:
                tally(self, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _tally_draws(tracer, result):
    tracer.counts["rng.uniforms.draws"] += result.size


def _tally_solve(tracer, result):
    tracer.counts["fem.assemble_solve.dofs"] += result.coefficients.size
    if (tracer.counts["fem.assemble_solve.calls"] - 1) % tracer.solve_stride == 0:
        tracer.solves.append(result)


def _tally_trials(tracer, result):
    tracer.counts["oracle.mc_estimate.trials"] += result.n_trials


def _tally_points(tracer, result):
    tracer.counts["problems.eval.points"] += np.size(result)


# (defining module, function, span name, tally)
TARGETS = (
    ("femprob.rng", "derive_key", "rng.derive_key", None),
    ("femprob.rng", "uniforms", "rng.uniforms", _tally_draws),
    ("femprob.mesh", "build_mesh", "mesh.build_mesh", None),
    ("femprob.fem", "assemble_solve", "fem.assemble_solve", _tally_solve),
    ("femprob.fem", "h1_error", "fem.h1_error", None),
    ("femprob.study", "convergence_study", "study.sweep", None),
    ("femprob.study", "superiority_sweep", "study.sweep", None),
    ("femprob.study", "fit_constant", "study.fit_constant", None),
    ("femprob.oracle", "mc_estimate", "oracle.mc_estimate", _tally_trials),
    ("femprob.laws", "crossover_h_star", "laws", None),
    ("femprob.laws", "prob_two_step", "laws", None),
    ("femprob.laws", "prob_sigmoid", "laws", None),
    ("femprob.laws", "prob_sigmoid_complement", "laws", None),
    ("femprob.laws", "tabulate_curve", "laws", None),
)

SPAN_NAMES = tuple(dict.fromkeys(target[2] for target in TARGETS)) + ("problems.eval",)
# every key a traced iteration can report; layers a workload never calls stay 0
METRIC_KEYS = tuple(
    f"{name}.{suffix}" for name in SPAN_NAMES for suffix in ("calls", "s", "self_s")
) + (
    "rng.uniforms.draws",
    "fem.assemble_solve.dofs",
    "oracle.mc_estimate.trials",
    "problems.eval.points",
    "fem.assemble_solve.p50_us",
    "fem.assemble_solve.p99_us",
)


def _femprob_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "femprob" or name.startswith("femprob.")
    ]


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of each target function by a traced wrapper."""
    modules = _femprob_modules()
    saved = []
    try:
        for module_name, attr, span_name, tally in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer.wrap(span_name, original, tally)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        saved.append((module, name, original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def traced_problem(problem: Problem1D, tracer: Tracer) -> Problem1D:
    """The same problem, with every callable recording a ``problems.eval`` span."""

    def wrap(fn):
        return tracer.wrap("problems.eval", fn, _tally_points)

    return Problem1D(
        name=problem.name,
        exact_solution=wrap(problem.exact_solution),
        exact_derivative=wrap(problem.exact_derivative),
        source=wrap(problem.source),
        seminorm_fn=problem.seminorm_fn,
    )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def outermost(spans: list[list]) -> list[bool]:
    """Whether each span has no ancestor of the same name (so times add up)."""
    flags = []
    for span in spans:
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        flags.append(parent < 0)
    return flags


def summarize(spans: list[list]) -> dict[str, float]:
    """Per span name: ``<name>.s`` (time inside it) and ``<name>.self_s``."""
    totals: Counter = Counter()
    for span, own, outer in zip(spans, self_times(spans), outermost(spans)):
        name, start, end, _ = span
        totals[name + ".self_s"] += own
        if outer:
            totals[name + ".s"] += end - start
    return dict(totals)


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for span_name, start, end, _ in spans if span_name == name]
