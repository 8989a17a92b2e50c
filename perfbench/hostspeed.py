"""Host-speed sampler: the benchmark's yardstick for a shared, noisy host.

The 2-core reference box runs a fixed pure-Python loop at one of two
speeds, about 1.5x apart, and switches between them on its own, in phases
from a tenth of a second to a minute.  CPU time moves with wall time, so
neither clock alone tells a slow program from a slow host.  The sampler
times a fixed loop every INTERVAL seconds of the process's life, from a
SIGALRM handler, so the samples cover exactly the stretch of time the
workload ran in.  `factor(t0, t1)` is the mean loop time inside [t0, t1]
over REF_S, the loop time of the reference box in its fast phase; a time
measured over [t0, t1] divided by that factor is the time the same work
takes on that box in its fast phase.

The handler runs between bytecodes of the main thread, about 0.15 ms per
sample, so it adds about 0.6% to whatever it interrupts.
"""

from __future__ import annotations

import signal
import time
from array import array

clock = time.perf_counter

INTERVAL = 0.025   # seconds between samples
LOOP_N = 2000      # iterations of the sampled loop
REF_S = 1.30e-4    # its time on the reference box (2-core x86, Python 3.11) when fast


def loop(n: int = LOOP_N) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class HostSpeed:
    """Samples of the fixed loop's time, taken every INTERVAL seconds."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _sample(self, signum, frame):
        t0 = clock()
        loop()
        t1 = clock()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def start(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Mean loop time in [t0, t1] over REF_S; the nearest sample when the
        interval holds none, 1.0 when there is no sample at all."""
        inside = [d for t, d in zip(self.at, self.took) if t0 <= t <= t1]
        if not inside and self.at:
            mid = (t0 + t1) / 2
            inside = [min(zip(self.at, self.took), key=lambda s: abs(s[0] - mid))[1]]
        return sum(inside) / len(inside) / REF_S if inside else 1.0
