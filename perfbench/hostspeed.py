"""A host-speed reference for scaling measured times.

The 2-vCPU VM this benchmark was written on changes speed by up to 2x
within seconds (other tenants of the machine), and a pure-Python loop
slows down with it.  Each timed piece of work is therefore preceded by
a short fixed loop, and its time is also reported scaled to a host on
which that loop takes ``NOMINAL_MS``:

    scaled = measured * NOMINAL_MS / loop_ms

The loop is the benchmark's own code, so no change to the program can
move it.  Raw times are kept next to the scaled ones in the results.
"""

from __future__ import annotations

import time

ITERATIONS = 200_000
#: The loop's time on the host the bounds were set on, so scaled and raw
#: times read about the same there.
NOMINAL_MS = 18.0


def reference_ms() -> float:
    s = 0
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def factor() -> float:
    """Scale for work timed right after this call."""
    return NOMINAL_MS / reference_ms()


class Stopwatch:
    """One operation's host time, raw and scaled, summed over its parts."""

    __slots__ = ("raw", "scaled")

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0

    def add(self, seconds: float, scale: float) -> None:
        self.raw += seconds
        self.scaled += seconds * scale
