"""The machine's momentary speed, sampled while the workload runs.

On a shared virtual machine the same code runs a third or more slower for
tens of seconds at a time, whenever other tenants load the physical cores;
runs of a few seconds cannot average that out. So every timed interval is
also measured in units of a fixed calibration kernel: a timer signal
interrupts the process every PERIOD_S, and the handler times one run of
`kernel()`. Each slice of time between two samples counts
slice * REFERENCE_S / kernel time at its end, so an interval's reference
time is its wall time (handler time excluded) at the reference speed. A
program change moves the reference time as it moves the wall time; a slow
phase of the machine moves both the wall time and the kernel time, and
cancels.

The kernel runs in whatever cache state the workload left, so a program
change that evicts more or less of the cache also moves the kernel time a
little; README.md gives the size of that effect.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Median kernel time, caches warm, on a quiet core of the 2-CPU virtual
# machine the benchmark was tuned on (Xeon, 2.1 GHz, Python 3.11, numpy 2.4);
# reference times are seconds at that speed.
REFERENCE_S = 1.4e-4

_ARR = np.arange(1000, dtype=float)


def kernel() -> None:
    """Interpreter work and small numpy calls, like the workloads' inner loops."""
    s = 0
    for i in range(2000):
        s += i * i
    for _ in range(20):
        _ARR.sum()


class SpeedSampler:
    """Context manager: samples the kernel every PERIOD_S while active and
    accumulates reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0        # seconds spent in the kernel
        self.ref = 0.0          # reference seconds up to self._edge
        self._edge = 0.0        # end of the last slice accounted
        self._k = 0.0           # latest kernel time

    def _sample(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        k = t1 - t0
        self.samples.append(k)
        self.spent += k
        self._k = k
        return t0, t1

    def _handler(self, signum, frame):
        t0, t1 = self._sample()
        self.ref += (t0 - self._edge) * REFERENCE_S / self._k
        self._edge = t1

    def _close(self) -> float:
        """Account the slice since the last sample at the latest speed."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            self.ref += (now - self._edge) * REFERENCE_S / self._k
            self._edge = now
            return now
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        _, self._edge = self._sample()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self) -> tuple:
        return len(self.samples), self.spent, self.ref, self._close()

    def interval(self, start: tuple) -> dict:
        """Wall time since `start` less the kernel's, the same at the
        reference speed, and the median kernel time seen."""
        n0, spent0, ref0, t0 = start
        now = self._close()
        ks = self.samples[n0:] or [self._k]
        return {"wall_s": now - t0 - (self.spent - spent0), "ref_s": self.ref - ref0,
                "kernel_s": statistics.median(ks), "samples": len(self.samples) - n0}
