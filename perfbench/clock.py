"""Times scaled to a calibration slice, so host speed drift cancels out.

On a shared host one core's speed drifts by up to 2x within seconds as
neighbouring jobs start and stop.  Plain wall-clock medians of 20 s runs
of the same code then differ by 15-40% between runs.  So the benchmark
runs a fixed slice of pure-Python work before every operation, and
reports each operation's time scaled to the slice's nominal duration:

    reported = measured * NOMINAL_S / median(the 2 * WINDOW slices around it)

A change to the package moves the operations and not the slices; a host
slowdown moves both alike.  Slices taken between operations tracked the
host better than slices taken on a timer during them, which the
operation's own working set disturbs.  Runs print the measured
wall-clock figures next to the scaled ones.  The slice and NOMINAL_S
define the unit and must never change; NOMINAL_S is about the slice's
median on an idle core of the machine the baseline was recorded on.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0003
WINDOW = 3  # slices taken on each side of an operation


def _slice() -> int:
    """Exact fractions, a small integer matrix product, dict updates."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
    m = [[(i * j) % 5 - 2 for j in range(5)] for i in range(5)]
    for _ in range(2):
        m = [[sum(a * b for a, b in zip(row, col)) % 1009 for col in zip(*m)] for row in m]
    counts: dict[tuple[int, int], int] = {}
    for i in range(150):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return acc.numerator + m[0][0] + len(counts)


class Clock:
    """Calibration slices, in the order they were taken."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        for _ in range(WINDOW):  # warm-up; these count as ordinary slices
            self.tick()

    def tick(self) -> int:
        """Run one slice; returns its index."""
        start = perf_counter()
        _slice()
        self.slices.append(perf_counter() - start)
        return len(self.slices) - 1

    def scale(self, before: int) -> float:
        """Factor for an interval that began right after slice `before`."""
        window = self.slices[max(0, before - WINDOW + 1): before + WINDOW + 1]
        return NOMINAL_S / statistics.median(window)
