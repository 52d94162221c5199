"""Machine-speed correction for a shared host.

On a shared host the speed of one virtual CPU swings by 20-40 % over a few
seconds, as other tenants come and go, and a whole run can land in a slow
stretch. The swings are common to all pure-Python work: a fixed reference
computation, timed between operations, slows by the same factor as the
operations around it (over 5 s windows, normalising by it cut the spread of
a fixed conecert workload from 11 % to 1.5 %).

`Probe` times the reference between operations, whenever PROBE_PERIOD_S
has passed since the last timing, and `timed` times one operation after
that check. `nominal` rescales an operation's wall time by the reference
timings just before and after it: the result is seconds at the speed where
the reference takes NOMINAL_REFERENCE_S. The benchmark prints the raw
wall-clock figures beside the rescaled ones.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# median of reference_seconds() on the 2-vCPU x86-64 host the benchmark was
# tuned on (CPython 3.11); a constant, so it rescales every commit alike
NOMINAL_REFERENCE_S = 0.0117
# a reference timing costs about 12 ms; every 0.1 s follows the swings
# closely enough that the spread of a run's figures halves against 0.25 s
PROBE_PERIOD_S = 0.1


def reference_seconds() -> float:
    """Wall time of a fixed computation in the style of the package: rational
    and big-integer arithmetic and a dict, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(i, i + 3) * Fraction(3, 7)
        table: dict[int, int] = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0) + i * i
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Reference timings interleaved with a workload's operations."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.refs: list[float] = []
        self.take()

    def take(self) -> None:
        started = time.perf_counter()
        ref = reference_seconds()
        self.stamps.append(started)
        self.refs.append(ref)

    def maybe(self) -> None:
        """Take a reference timing if PROBE_PERIOD_S has passed since the last one."""
        if time.perf_counter() - self.stamps[-1] >= PROBE_PERIOD_S:
            self.take()

    def timed(self, fn, *args, **kwargs):
        """Call fn after a `maybe`; returns its result and (start, wall time)."""
        self.maybe()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, (started, time.perf_counter() - started)

    def nominal(self, started: float, elapsed: float) -> float:
        """Wall time `elapsed` of an operation that began at `started`, rescaled
        by the mean of the reference timings on either side of it."""
        i = bisect.bisect_right(self.stamps, started)
        around = self.refs[max(0, i - 1):i + 1]
        return elapsed * NOMINAL_REFERENCE_S / (sum(around) / len(around))

    def total(self, ops) -> float:
        """Summed `nominal` time of (start, wall time) pairs."""
        return sum(self.nominal(started, elapsed) for started, elapsed in ops)

    def note(self) -> str:
        med = statistics.median(self.refs)
        return (f"machine speed: reference median {med * 1e3:.2f} ms over {len(self.refs)} "
                f"timings against nominal {NOMINAL_REFERENCE_S * 1e3:.2f} ms; "
                f"times are rescaled to nominal speed")
