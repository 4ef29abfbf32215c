"""Machine-speed probe.

On a shared host the speed of exact-rational Python code can change by
2x within seconds, and each CPU changes on its own.  CPU time changes
with wall time, so this is contention for the core, not lost CPU time.
``probe`` times a fixed piece of work shaped like the library's hot
loops: Fraction Gaussian elimination on a fixed 7x7 matrix, about 5 ms.
It imports nothing from closurelab, so library changes cannot move it.

A wall time multiplied by ``REFERENCE_PROBE_MS`` and divided by the mean
of the probes taken just before and just after it reads as it would on
a host where the probe takes ``REFERENCE_PROBE_MS``.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the median probe time on the 2-core VM where the baseline was taken.
REFERENCE_PROBE_MS = 5.0

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(7)]
           for i in range(7)]


def probe() -> float:
    """Milliseconds taken by the fixed probe work."""
    start = time.perf_counter()
    for _ in range(3):
        work = [row[:] for row in _MATRIX]
        r = 0
        for col in range(7):
            pivot = next((i for i in range(r, 7) if work[i][col] != 0), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(7):
                if i != r and work[i][col] != 0:
                    f = work[i][col] / work[r][col]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            r += 1
    return 1000.0 * (time.perf_counter() - start)
