"""Host-speed probes: a fixed pure-Python kernel timed around each sample.

On a shared 2-vCPU VM the CPU speed drifts by a third and more over seconds
to minutes (NOTES.md, Steadiness), and that drift, not the program, set the
run-to-run spread of wall times.  So each timed sample is also given in
reference seconds: its wall time, times REFERENCE_S over the kernel's time
probed right before and right after the sample.  A change to the program
moves both figures alike; a change in host speed moves mainly the wall time.
"""

from __future__ import annotations

import time

LOOPS = 100_000
BEST_OF = 3
# The kernel's best-of-3 time on the fast level of the 2-vCPU Xeon VM the
# benchmark was defined on (Python 3.11.7); it only fixes the scale.
REFERENCE_S = 0.007


def kernel_s() -> float:
    """Best-of-BEST_OF seconds of the calibration kernel, now."""
    best = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def reference_s(wall: float, before: float, after: float) -> float:
    """Scale ``wall`` seconds by the host speed probed around it."""
    return wall * REFERENCE_S * 2.0 / (before + after)


def timed(fn):
    """Run ``fn()`` between two probes: (its result, wall s, reference s)."""
    before = kernel_s()
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    return out, wall, reference_s(wall, before, kernel_s())
