"""The machine's current speed, from a fixed loop that does not touch the
program.

The machine the benchmark runs on is shared, and its speed drifts by up
to a third over tens of minutes.  Every timed piece of work therefore sits
between two runs of this loop, and a time is reported as its ratio to the
loop's time scaled by `REFERENCE_S`: seconds at the speed the machine had
when the loop took `REFERENCE_S`.  The loop is interpreter-bound, as the
workloads mostly are, and makes no allocation that outlives it.
"""

from __future__ import annotations

import statistics
import time

# Median time of `loop()` on the machine the reference figures of
# README.md were measured on.
REFERENCE_S = 0.14
LOOP_ITERATIONS = 1_500_000


def loop() -> float:
    """Seconds taken by the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(samples) -> float:
    """Median, in seconds at the reference speed, of (time, loop time
    before, loop time after) triples.  Each time is set against the mean of
    the loops on either side of it, since the machine's speed also changes
    within seconds."""
    return REFERENCE_S * statistics.median(
        2.0 * t / (before + after) for t, before, after in samples)
