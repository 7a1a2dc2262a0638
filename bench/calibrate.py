"""Speed-corrected timing: one fixed calibration kernel and a clock built on it.

The benchmark runs on a shared VM whose vCPU changes speed for seconds at a
time; Python loops and cache-resident NumPy loops slow down together.  So the
clock interleaves a fixed kernel with the timed operations and scales every
timed interval by ``C_REF / cal(t_mid)``, where ``cal`` is the kernel's
duration linearly interpolated between the samples that bracket the interval.

What the correction cannot see: a background thread of the *program* that
slows the kernel down (the kernel would charge the program's own work to the
machine).  Every workload therefore runs its program single-threaded between
samples and ends with a barrier op.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Reference duration of the kernel in seconds.  A constant of the benchmark,
#: never tuned per machine: it only fixes the unit of "corrected seconds".
C_REF = 0.0025

#: Minimum spacing of calibration samples between operations, in seconds.
SAMPLE_EVERY = 0.05

_N = 2000
_DATA = np.linspace(0.5, 1.5, _N)
_STARTS = np.arange(0, _N, 8)
_ORDER = (np.arange(_N) * 7919) % _N
_NUMPY_REPS = 80
_PYTHON_REPS = 12000


def _half() -> float:
    """One half of the kernel: L1-resident NumPy work plus a Python loop."""
    begin = time.perf_counter()
    total = 0.0
    for _ in range(_NUMPY_REPS):
        total += float(np.add.reduceat(_DATA, _STARTS).sum())
        total += float((np.take(_DATA, _ORDER) * _DATA).sum())
    acc = 0
    for i in range(_PYTHON_REPS):
        acc = (acc + i * i) & 0xFFFF
    if total < 0 or acc < 0:  # consume both results
        raise AssertionError("calibration kernel produced a negative sum")
    return time.perf_counter() - begin


def kernel() -> float:
    """Duration of the calibration kernel in seconds.

    Two halves are timed and the value is twice the shorter one, so a single
    preemption inside the kernel does not read as a slow machine.
    """
    return 2.0 * min(_half(), _half())


class Clock:
    """Times operations and corrects them for machine speed.

    ``time(kind, fn, *args)`` runs one operation and records its raw interval
    under ``kind``; a calibration sample is taken first when the previous one
    is older than :data:`SAMPLE_EVERY`.  ``close()`` takes the final sample,
    after which ``corrected(kind)`` and ``raw(kind)`` give the durations.
    """

    def __init__(self):
        self._sample_at: list[float] = []
        self.samples: list[float] = []
        self._intervals: dict[str, list[tuple[float, float]]] = {}
        self.sample()

    def sample(self) -> None:
        value = kernel()
        self._sample_at.append(time.perf_counter() - value / 2.0)
        self.samples.append(value)

    def time(self, kind: str, fn, *args):
        if time.perf_counter() - self._sample_at[-1] >= SAMPLE_EVERY:
            self.sample()
        begin = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self._intervals.setdefault(kind, []).append((begin, end))
        return result

    def close(self) -> None:
        self.sample()

    def _cal_at(self, when: float) -> float:
        at, cal = self._sample_at, self.samples
        right = bisect.bisect_left(at, when)
        if right == 0:
            return cal[0]
        if right == len(at):
            return cal[-1]
        left = right - 1
        weight = (when - at[left]) / (at[right] - at[left])
        return cal[left] + weight * (cal[right] - cal[left])

    def corrected(self, kind: str) -> list[float]:
        """Durations of ``kind`` scaled by ``C_REF / cal(t_mid)``."""
        return [(end - begin) * C_REF / self._cal_at((begin + end) / 2.0)
                for begin, end in self._intervals.get(kind, [])]

    def raw(self, kind: str) -> list[float]:
        return [end - begin for begin, end in self._intervals.get(kind, [])]

    def window(self, *kinds: str) -> float:
        """Wall seconds from the first to the last interval of ``kinds``,
        without the calibration samples taken in between."""
        spans = [pair for kind in kinds
                 for pair in self._intervals.get(kind, [])]
        first = min(begin for begin, _end in spans)
        last = max(end for _begin, end in spans)
        inside = sum(value for at, value in zip(self._sample_at, self.samples)
                     if first < at < last)
        return last - first - inside
