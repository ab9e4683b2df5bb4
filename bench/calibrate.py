"""Machine-speed calibration for the end-to-end timings.

The 2-CPU machine this benchmark was tuned on changes speed by up to
1.9x, in spells that last from a fraction of a second to minutes: other
tenants share its cores.  No statistic over a 25-second run removes
that, so the run times a fixed piece of pure-Python work that does not
touch relcalc between jobs, and scales each job's time by
``REFERENCE_S`` over the calibration time around the job.  The result is
the job's time at the speed where the calibration takes ``REFERENCE_S``.
A change to relcalc leaves the calibration alone, so it shows in full.

The calibration mixes integer arithmetic with small-object work
(frozen dataclasses, tuples, dict inserts, raised exceptions) in about
equal time, because the two kinds of work speed up by different amounts
in a fast spell and relcalc's jobs sit between them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REFERENCE_S = 0.010
INTERVAL_S = 0.1


@dataclass(frozen=True)
class _Item:
    name: str
    marked: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty name")


class _Miss(Exception):
    pass


def sample() -> float:
    """Seconds one round of the fixed calibration work takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    seen = {}
    row: tuple = ()
    for i in range(800):
        row = row[-6:] + (_Item("abcd"[i & 3], bool(i & 4)),)
        seen[row] = i
        try:
            if i % 3:
                raise _Miss
        except _Miss:
            pass
    return time.perf_counter() - t0


class Clock:
    """Calibration samples at least ``INTERVAL_S`` apart, taken between
    jobs; a job is scaled by the samples just before and after it."""

    def __init__(self):
        self.samples = [sample()]
        self._last = time.perf_counter()

    def before_job(self) -> int:
        """Take a sample if one is due; the index of the latest sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(sample())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self):
        """A last sample, after the last job of a pass."""
        self.samples.append(sample())
        self._last = time.perf_counter()

    def factor(self, k: int) -> float:
        """Scale for a job run after sample ``k``: reference over the mean
        of samples ``k`` and ``k + 1``."""
        around = self.samples[k:k + 2]
        return REFERENCE_S * len(around) / sum(around)
