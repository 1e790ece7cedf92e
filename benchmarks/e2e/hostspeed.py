"""Host-speed reference: a fixed micro-probe sampled while the work runs.

On a shared VM the host's speed moves by 2x within seconds, so raw wall
times of identical passes spread by 20-40%.  A probe run before and after
each cell only sees the host at two instants; an interval timer that
fires every :data:`PERIOD_S` during the cell and runs a fixed ~0.25 ms
loop sees it throughout.  Work done in a window is its wall time (minus
the probes' own time) times the mean host speed over the window, and the
samples, being uniform in time, estimate that mean without bias.

The probe is benchmark code, not simulator code: no change to the
simulator can move it.  A time is *host-normalised* when expressed in
seconds of a host on which the probe takes ``nominal_s``.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Sampling period of the interval timer (wall time).
PERIOD_S = 0.005
#: Iterations of the micro-probe loop (about 0.25 ms on a 2-core VM).
PROBE_ITERS = 40


class Span:
    """What one timed window measured."""

    raw_s = 0.0    #: wall time minus the probes run inside the window
    probe_s = 0.0  #: time the probes inside the window took
    norm_s = 0.0   #: ``raw_s`` in host-normalised seconds


class HostSampler:
    """Runs the micro-probe on SIGALRM inside :meth:`timed` windows."""

    def __init__(self, nominal_s: float) -> None:
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self._gen = np.random.Generator(np.random.PCG64(12345))
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a probe slower than the period must not nest
            self.probe()

    def probe(self) -> float:
        """Run the fixed loop once; record and return its wall time (s).

        Small numpy calls plus dict, list and float work in Python: the
        mix the simulator's hot paths spend their time in.
        """
        self._busy = True
        t0 = time.perf_counter()
        acc = 0.0
        table: dict[int, float] = {}
        items: list[float] = []
        for i in range(PROBE_ITERS):
            x = self._gen.random(8)
            acc += float(np.cumsum(x)[-1])
            table[i % 7] = table.get(i % 7, 0.0) + acc
            items.append(acc)
            if len(items) > 8:
                items.sort()
                del items[:4]
        wall = time.perf_counter() - t0
        self.samples.append(wall)
        self._busy = False
        return wall

    def speed(self, probes: list[float]) -> float:
        """Mean host speed over ``probes``, relative to the nominal host."""
        return statistics.fmean(self.nominal_s / p for p in probes)

    @contextmanager
    def timed(self):
        """Time the ``with`` body, sampling host speed while it runs."""
        span = Span()
        n0 = len(self.samples)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t0
            inside = self.samples[n0:]
            span.probe_s = sum(inside)
            span.raw_s = wall - span.probe_s
            # A window shorter than one period gets one probe just after.
            span.norm_s = span.raw_s * self.speed(inside or [self.probe()])
