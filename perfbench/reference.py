"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine whose speed swings by up
to 2x within seconds and from one minute to the next: the same query of
the same code takes 55 ms in one second and 110 ms in the next, in CPU
time as in wall time, with no steal time reported. Raw timings then
measure the neighbours more than the program.

The kernel below is Python float arithmetic in a bisection loop, calls of
``math.erfc`` and small ``numpy``/``scipy.special`` array operations: the
same mix of work as sempower's scalar solver path, but none of sempower's
code, so it runs the same on every version of the program. Timed next to
each query, it is slowed by the same contention as the query, and a query
time multiplied by ``NOMINAL_MS / kernel time`` reads as the query time at
the host speed where the kernel takes ``NOMINAL_MS``. A slower program still
reads slower by the same factor; only the host's speed cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

# Kernel time on an idle vCPU of a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, scipy 1.17); it only scales the normalised figures to ms.
NOMINAL_MS = 3.0

_GRID = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    """About 3 ms of fixed work; returns a checksum so none is skipped."""
    x = 0.0
    for i in range(60):
        lo, hi = 0.0, 10.0
        target = 1e-4 + i * 1e-3
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(mid / math.sqrt(2.0)) > target:
                lo = mid
            else:
                hi = mid
        x += mid
    for i in range(300):
        x += float(special.erfc(_GRID * i).sum()) + float(np.exp(-_GRID).mean())
    return x


def kernel_ms(reps: int = 1) -> float:
    """Mean wall time of ``reps`` kernel runs, in ms."""
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - t0) * 1e3 / reps
