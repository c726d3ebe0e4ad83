"""A fixed reference task that measures the current speed of the machine.

The sandboxes this benchmark runs in share their hosts, whose effective
speed drifts by up to 1.5x over minutes, longer than a run. Dividing each
timed iteration by this task, timed just before it in the same run, cancels
most of that drift. The task never calls femprob. It mixes the three kinds
of work the workloads do: interpreted Python, small numpy calls and
memory-bound array passes. It must not change, or every ratio shifts with it.
"""

from __future__ import annotations

import time

import numpy as np

# The task's typical duration on the 2-vCPU Intel Xeon machine the benchmark
# was built on (Python 3.11, numpy 2.4). setup_s is given in seconds at this
# reference speed: each setup launch divided by the reference run of its
# cycle, times NOMINAL_S. It must not change either.
NOMINAL_S = 0.125

_ARRAY = np.arange(4_000_000, dtype=np.float64)
_MATRIX = np.eye(3) * 2.0
_VECTOR = np.ones(3)


def _interpreted() -> int:
    buckets: dict[int, int] = {}
    for i in range(200_000):
        buckets[i % 1000] = buckets.get(i % 1000, 0) + i
    return len(buckets)


def _small_calls() -> None:
    for _ in range(5_000):
        np.linalg.solve(_MATRIX, _VECTOR)
        np.sin(_VECTOR)


def _array_passes() -> float:
    return sum(float((_ARRAY * 1.0001 + 1.0).sum()) for _ in range(5))


def seconds() -> float:
    """Wall time of one pass of the reference task."""
    start = time.perf_counter()
    _interpreted()
    _small_calls()
    _array_passes()
    return time.perf_counter() - start
