"""Machine-speed calibration for the benchmark's times.

The CPUs this benchmark runs on are shared, and their speed drifts in
phases of ten to thirty seconds by as much as 45%: far more than any
bound a timing could be held to.  So every timed stretch is bracketed by
runs of a fixed kernel of big-integer and interpreter work, the same
mix the package does, and its times are scaled by

    REFERENCE_S / (median kernel time around that stretch)

i.e. reported in seconds at the speed the kernel had when REFERENCE_S
was measured.  The scale cancels the drift, which slows the kernel and
the package alike; a change to the package leaves the kernel alone, so
it still shows in full.  The raw times are printed next to the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on a 2-core Intel Xeon VM under CPython 3.11.7.
REFERENCE_S = 2.2e-3
SAMPLES = 8  # kernel runs at the start and end of a timed stretch
CHUNK_SAMPLES = 2  # kernel runs between its parts


def kernel() -> int:
    x = 3**200
    acc = 0
    seen = {}
    for i in range(6000):
        acc += x * (i + 1) // 7
        seen[i & 255] = acc & 0xFFFF
    return acc


def sample(count: int = SAMPLES) -> list[float]:
    """Durations of `count` kernel runs, in seconds."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside `samples` into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
