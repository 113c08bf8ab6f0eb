"""A machine-speed reference that the benchmark's timings are scaled by.

On a small shared machine the speed of one core changes by up to about
1.5x in stretches of seconds to tens of seconds (other tenants, clock
changes), so a run of half a minute can fall mostly into a fast or a
slow stretch and move every timing together. The benchmark therefore
times a fixed pure-Python loop next to the program's work, while the
program is idle, and scales each timing to a machine on which that loop
takes REFERENCE_S. The loop uses no code of the program, so a change to
the program cannot change the scale.
"""

from __future__ import annotations

import statistics
from array import array
from bisect import bisect_right
from time import perf_counter

# Seconds the reference loop takes on the machine the benchmark was
# defined on, in its usual (slower) state; scaled timings read close to
# that machine's wall times.
REFERENCE_S = 1.5e-3
LOOP = 20_000
INTERVAL_S = 0.05  # at most this much op time between two readings
WINDOW = 3  # readings taken on each side of an op


def loop_seconds() -> float:
    """One timing of the reference loop."""
    start = perf_counter()
    x = 0
    for i in range(LOOP):
        x += i * i
    return perf_counter() - start


def scale_now() -> float:
    """Factor from wall seconds now to reference seconds (median of five loops)."""
    return REFERENCE_S / statistics.median(loop_seconds() for _ in range(5))


class SpeedTrack:
    """Readings of the reference loop taken between ops, by time."""

    def __init__(self):
        self.at = array("d")
        self.cost = array("d")
        self._last = float("-inf")

    def read(self, force: bool = False) -> None:
        """Take a reading if INTERVAL_S has passed since the last (or if forced)."""
        now = perf_counter()
        if force or now - self._last >= INTERVAL_S:
            self.at.append(now)
            self.cost.append(loop_seconds())
            self._last = perf_counter()

    def scale(self, start: float, elapsed: float) -> float:
        """Factor that turns a timing of [start, start + elapsed] into reference seconds.

        Uses the median of the WINDOW readings just before the op and the
        WINDOW readings just after it."""
        before = bisect_right(self.at, start)
        after = bisect_right(self.at, start + elapsed)
        near = self.cost[max(0, before - WINDOW):before] + self.cost[after:after + WINDOW]
        return REFERENCE_S / statistics.median(near)
