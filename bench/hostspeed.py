"""Host-speed calibration for timings taken on a shared machine.

Other tenants of the host slow every op by up to 2x, in bursts that last
from a fraction of a second to minutes, and CPU time rises with wall time,
so neither repeats nor CPU clocks remove the effect.  The benchmark runs
this fixed piece of work, which does not touch shadowlp, next to every
timed op and scales each op's time by REFERENCE_MS / (calibration time
measured around it).  A contended stretch slows both alike, so the scaled
time is what the op would take at the reference speed.

The work mirrors the package's own mix: small LAPACK factorizations and
solves, a tall matrix-vector product and an interpreted loop.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Median time of one calibrate() call on an uncontended Haswell-class x86-64
# vCPU (numpy 2.4, scipy 1.17, single-threaded OpenBLAS); it only sets the
# unit, so scaled times read as milliseconds on such a vCPU.
REFERENCE_MS = 2.3

_RNG = np.random.default_rng(20250405)
_SQUARE = _RNG.standard_normal((20, 20))
_TALL = _RNG.standard_normal((2000, 20))


def calibrate() -> int:
    """Run the fixed work once; returns its duration in ns."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for _ in range(40):
        lu = lu_factor(_SQUARE, check_finite=False)
        x = lu_solve(lu, _SQUARE[0], check_finite=False)
        acc += float((_TALL @ x)[0])
    for i in range(20000):
        acc += i * 0.5
    elapsed = time.perf_counter_ns() - t0
    if acc != acc:  # keeps the result live; never true for this input
        raise ArithmeticError("calibration produced NaN")
    return elapsed


def scale(elapsed_ns: float, calibration_ns: float) -> float:
    """elapsed_ns in ms at the reference speed."""
    return elapsed_ns / 1e6 * (REFERENCE_MS * 1e6 / calibration_ns)
