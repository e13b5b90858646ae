"""Host-speed references: fixed computations that never touch kappa_rup.

On a shared host the speed of code drifts between states that last from
a fraction of a second to minutes. On the reference machine (a 2-vCPU
VM) interpreter-bound Python runs up to 2x slower in the slow state,
while vectorized numpy on large arrays slows by about 10%. The benchmark
times a reference of the same kind right before and right after each
measured piece of work and reports the work as a multiple of it, which
cancels the host's state; raw seconds are reported alongside.

* ``python_seconds``: interpreter-bound, shaped like the library's scalar
  path (a Python integrand on numpy scalars, summed by a Python loop).
* ``array_seconds``: vectorized numpy over a 2 MiB float array, shaped
  like the grid verifiers.
* ``python_window``: the mean of single ``python_seconds`` timings over a
  window, for work that lasts a second (a whole interpreter), where two
  point samples say little.

Only numpy is imported, so that a measured process holds no module the
library itself would not load.
"""

from __future__ import annotations

import math
import time

import numpy as np

# python_seconds in the reference machine's fast state: converts a time
# measured in reference units back to seconds at that speed
PYTHON_NOMINAL_S = 2.0e-4

_POINTS = [4.0 * i / 32 for i in range(33)]
_ARRAY = np.linspace(0.0, 4.0, 2**18)


def _integrand(x):
    a = np.asarray(x, dtype=float)
    if np.any(~(a > -1.0)):
        raise ValueError("unreachable: x >= 0")
    return float(np.exp(-a * a))


def _python_once() -> float:
    start = time.perf_counter()
    total = 0.0
    for i, x in enumerate(_POINTS):          # Simpson's rule on [0, 4]
        total += (1 if i in (0, 32) else 4 if i % 2 else 2) * _integrand(x)
    elapsed = time.perf_counter() - start
    if not total > 0.0:
        raise ValueError("unreachable: positive integrand")
    return elapsed


def python_seconds() -> float:
    """Best of two timings of the interpreter-bound reference (~0.2 ms)."""
    return min(_python_once(), _python_once())


def array_seconds() -> float:
    """Best of two timings of the numpy reference (~2 ms)."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        np.sqrt(np.exp(-_ARRAY * _ARRAY) + _ARRAY)
        best = min(best, time.perf_counter() - start)
    return best


def python_window(seconds: float) -> float:
    """Mean single timing of the interpreter-bound reference over ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(_python_once())
    return sum(times) / len(times)
