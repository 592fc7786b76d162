"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
virtual machine, one 5-round s1 pass took between 0.14 s and 0.25 s within two
minutes, and medians of whole runs differed by 2x between quiet and busy
periods. A fixed kernel timed next to the measured work slows down with
it: the ratio of pass time to kernel time stayed within 6% over the same
two minutes. Each time the benchmark reports is therefore scaled to a
reference speed, at which the kernel takes `REFERENCE_S`:

    reported = measured * REFERENCE_S / kernel time measured alongside

The kernel is the same mix of work as the program's hot path (a Python
loop over small numpy validations, Cholesky factorizations and triangular
solves) and uses no fedunroll code, so a change to the program cannot
change it.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

REFERENCE_S = 0.010
ITERATIONS = 400
REPEATS = 3

_A = np.array([[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.5, 0.0], [0.0, 0.5, 2.0, 0.2], [0.0, 0.0, 0.2, 1.0]])
_B = np.arange(1.0, 5.0)


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes."""
    t0 = time.perf_counter()
    acc = 0.0
    eye = np.eye(4)
    for i in range(ITERATIONS):
        x = np.asarray(_B, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ValueError("calibration input is not finite")
        L = np.linalg.cholesky(_A + (i * 1e-9) * eye)
        z = np.linalg.solve(L.T, np.linalg.solve(L, x))
        acc += float(z @ z)
    if not acc > 0.0:
        raise ValueError("calibration kernel produced no result")
    return time.perf_counter() - t0


def speed_factor() -> float:
    """REFERENCE_S over the median of `REPEATS` kernel runs: the factor that
    scales a time measured now to the reference speed."""
    return REFERENCE_S / median(kernel_s() for _ in range(REPEATS))
