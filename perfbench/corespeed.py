"""Core-speed sampling, so that times taken on a shared host can be compared.

On the 2-vCPU machine this benchmark was built on, each core switches
between full speed and about half speed about once a second, and the
share of slow time drifts over minutes.  The same call then takes 0.5 s
or 1.0 s, and whole runs differ by 40%.  CPU time tracks wall time, so
the process is not descheduled: the core itself runs slower.

`CoreSpeed` pins the process to one core and starts a thread that, every
50 ms, times a fixed pure-Python kernel (Fraction arithmetic into a dict,
like the program's exact linear algebra).  `scaled` rescales a measured
interval by REFERENCE_S over the kernel's mean time during that interval:
wall time × REFERENCE_S / mean kernel time.  The result is the time the
interval would have taken with the kernel at REFERENCE_S, its time on a
full-speed core of that machine.  Sampling costs about 5% of the wall time.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

REFERENCE_S = 0.0012
PERIOD_S = 0.05


def kernel() -> float:
    """Seconds taken by a fixed ~1 ms piece of Fraction and dict work."""
    start = time.perf_counter()
    acc = {}
    for i in range(1, 250):
        f = Fraction(i % 7 + 1, i % 11 + 1)
        acc[i % 64] = acc.get(i % 64, Fraction(0)) + f * f
    return time.perf_counter() - start


class CoreSpeed:
    """Context manager: pin to one core and sample the kernel until exit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="corespeed", daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            took = kernel()
            self.samples.append((time.perf_counter(), took))

    def __enter__(self) -> "CoreSpeed":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, rescaled to the reference core speed."""
        samples = list(self.samples)
        during = [k for t, k in samples if start <= t <= start + seconds + PERIOD_S]
        if not during:  # an interval shorter than one period: the nearest sample
            during = [min(samples, key=lambda s: abs(s[0] - start))[1]] if samples else [REFERENCE_S]
        return seconds * REFERENCE_S / statistics.fmean(during)
