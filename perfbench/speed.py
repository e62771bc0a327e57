"""Machine-speed probe that puts every run's times on one scale.

On the shared two-core machines this benchmark was built on, the same
operation on the same input runs up to a third faster or slower from one
minute to the next (other tenants; no steal time shows).  A fixed probe,
interleaved with the operations, slows and speeds up with it: over 150 s
the median time of a restructure at n=40 moved by +-28% while its ratio to
the probe moved by +-4%.  So each run divides its measured times by

    factor = median probe time in this run / NOMINAL_S

and reports seconds of a machine running at the nominal speed.  The
factor is taken from the probes within a few seconds of each measured
interval, so drift within a run is followed too.  The probe is a miniature
of the ``corpus`` workload: interpreted Python, small numpy array
operations and small LAPACK calls.  It is the benchmark's own code with
fixed inputs, so no change to the program can alter it.

The probe follows only work like its own.  Against a multi-second n=200
kernel call or a separate CLI process (``cli``) its factor moved by 15-35%
between runs whose unscaled times agreed within 3-10%, so ``cli`` reports
times as measured (``AsMeasured``).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# median probe time on the reference machine (Intel Xeon, 2 vCPUs, KVM,
# OpenBLAS with 2 threads); it only sets the scale of the reported times
NOMINAL_S = 0.0125
# share of the run's wall time spent probing, spread evenly over the run
SHARE = 0.08
MIN_PROBES = 25
# the factor of an interval is the median of the probes less than WINDOW_S
# from it, and of at least the NEAREST probes to its midpoint
WINDOW_S = 4.0
NEAREST = 15


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20190527)
        self._m = rng.standard_normal((48, 48))
        self._x = rng.standard_normal((48, 24)) + 1j * rng.standard_normal((48, 24))
        self.times = []
        self.stamps = []  # midpoints of the probes, increasing
        self._spent = 0.0
        self._start = time.perf_counter()

    def _once(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(200):
            norms = np.einsum("ij,ij->j", self._x.conj(), self._x).real
            self._x * np.sqrt(norms)
        for _ in range(10):
            np.linalg.svd(self._m)
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self._spent += t1 - t0
        self.stamps.append((t0 + t1) / 2.0)

    def keep_up(self) -> None:
        """Probe until probing has taken SHARE of the time since start."""
        while self._spent < SHARE * (time.perf_counter() - self._start):
            self._once()

    def factor(self) -> float:
        """Speed factor of the whole run."""
        while len(self.times) < MIN_PROBES:
            self._once()
        return statistics.median(self.times) / NOMINAL_S

    def factor_at(self, t0: float, t1: float) -> float:
        """Speed factor around the interval [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if hi - lo < NEAREST:
            i = bisect.bisect(self.stamps, (t0 + t1) / 2.0)
            lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return statistics.median(self.times[lo:hi]) / NOMINAL_S

    def scale(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] in seconds of the nominal machine."""
        return (t1 - t0) / self.factor_at(t0, t1)


class AsMeasured:
    """Stand-in for SpeedProbe on workloads the probe does not follow."""

    times = ()

    def keep_up(self) -> None:
        pass

    def factor(self) -> float:
        return 1.0

    def scale(self, t0: float, t1: float) -> float:
        return t1 - t0
