"""The machine-speed calibration loop behind times at reference speed.

The host's speed drifts by a fifth within seconds, in CPU time as much as in
wall time, and a fixed loop of interpreted Python and numpy drifts with the
program.  ``run.py`` scales every measured time by ``REFERENCE_CAL_S`` over
this loop's median time measured next to it, in the same process.
"""

import statistics
import time

import numpy as np

# Median time of calibrate() on the 2-vCPU Xeon the benchmark was tuned on,
# so that times at reference speed read as times on that machine.
REFERENCE_CAL_S = 2.5e-3
CAL_ARRAY = np.linspace(0.0, 1.0, 4096)


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreted Python and numpy."""
    start = time.perf_counter()
    total = 0
    for i in range(12_000):
        total += i * i % 7
    x = CAL_ARRAY
    for _ in range(12):
        x = np.sort(np.sin(x)) * 0.5 + x
    return time.perf_counter() - start


def calibrated_median() -> float:
    """Median of five timings of :func:`calibrate`."""
    return statistics.median(calibrate() for _ in range(5))
