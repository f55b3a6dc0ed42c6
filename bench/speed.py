"""Machine speed, for reporting measured times at one fixed speed.

On a shared machine the speed of a core drifts by a third within an hour,
as neighbours come and go, and CPU time drifts with wall time.  A fixed
pure-Python loop, timed again and again through a run while the program
under test is idle, tracks that drift; ``scale`` reports a time at the
speed where the loop takes ``REFERENCE_S``, taking the run's speed as the
median of its loop times.  The program never runs during the loop, so a
change to the program moves the scaled time just as it moves the raw one.

Measured on a shared 2-core VM, two sets of ten runs per workload, twenty
minutes apart: unscaled, the median pass time of study-pipeline moved by
12% between the sets and by a third within the hour; scaled, by at most
7% for any workload, with quartile spreads of 0.08 to 0.18 of the median
within a set.  Scaling each pass by the two loop times around it instead
spread more (up to 0.28): a pass of several seconds on two cores does not
run at the speed of two instants on one core.
"""

from __future__ import annotations

import statistics
import time

LOOP = 500_000
REFERENCE_S = 0.045  # about the loop's time on an idle core of that VM


def reference_s() -> float:
    """Seconds the fixed loop takes now: the median of three timings, so
    that one interrupted timing does not move it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, refs: list[float]) -> float:
    """``seconds`` at the reference speed, given the loop times ``refs``
    taken through the run."""
    return seconds * REFERENCE_S / statistics.median(refs)
