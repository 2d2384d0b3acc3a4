"""Calibrated op timing on a machine whose speed drifts.

On a shared host the speed of this process's CPU drifts by up to 1.7x within
seconds (neighbours on the same cores), which moves wall times far more than
the changes the benchmark is meant to detect.  A fixed probe loop, run every
``PERIOD_S`` by a SIGALRM handler on the benchmark's only Python thread,
samples that speed.  An op's calibrated time is its wall time, less the probe
time spent inside it, times ``REF_PROBE_S`` over the mean probe duration
around the op: the time the op would have taken at the speed at which the
probe takes ``REF_PROBE_S``.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
# Probes within this distance of an op's interval describe its speed.
WINDOW_S = 0.1
# Probe duration that defines the reference speed (about the probe's median
# duration on a 2-vCPU x86-64 VM with Python 3.11, numpy 2.4).
REF_PROBE_S = 4.0e-4

_A = np.eye(4) * 1.5


def probe() -> float:
    """Fixed mix of interpreter work and small numpy calls, like the ops'."""
    s = 0.0
    for i in range(40):
        s += float(np.linalg.eigvalsh(_A + i * 1e-3)[0]) + math.log(1.0 + i)
    return s


class SpeedSampler:
    """Context manager that samples the probe duration every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        # A tick that lands inside a stalled probe is skipped, which keeps
        # ``times`` sorted for the bisections in ``calibrate``.
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - start)
        self.times.append(start)
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated duration of an op that ran from ``start`` to ``end`` (perf_counter)."""
        times, durations = self.times, self.durations
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        net = (end - start) - sum(durations[lo:hi])
        near_lo = bisect.bisect_left(times, start - WINDOW_S)
        near_hi = bisect.bisect_right(times, end + WINDOW_S)
        if near_lo == near_hi:  # no probe close by: take the nearest one
            near_lo = max(0, min(lo, len(times) - 1))
            near_hi = near_lo + 1
        speed = sum(durations[near_lo:near_hi]) / (near_hi - near_lo)
        return net * REF_PROBE_S / speed
