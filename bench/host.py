"""Host speed sampling, to rescale measured times to a nominal host speed.

On a host shared with other tenants, the same work ran up to 1.6 times
slower in some phases than in others.  Phases lasted from one to twenty
seconds, and CPU time slowed down as much as wall time.  While a
:class:`SpeedSampler` is active, a ``SIGPROF`` handler times a fixed probe
every ``PERIOD_S`` of process CPU time, so no thread is started.  A span of
work is then rescaled by the mean probe time during it: its scaled time is
its own time (less the probes that ran inside it) times ``NOMINAL_PROBE_S``
over that mean.  For a short span with no probe inside, the nearest probes
on either side stand in.  A scaled time is thus the span's cost in probe
units, expressed as the time it takes on a host where the probe takes
``NOMINAL_PROBE_S``: the probe's fastest time on the 2-core reference host.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_TERMS = 150
PERIOD_S = 0.025
NOMINAL_PROBE_S = 0.0003


def probe() -> float:
    """Time a fixed exact-arithmetic loop that never calls ergolab."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


class SpeedSampler:
    """Probe samples ``(end time, probe seconds)`` taken while active."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        duration = probe()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def __enter__(self) -> "SpeedSampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample(None, None)

    def best(self) -> float:
        return min(self.durations)

    def scaled(self, start: float, end: float) -> float:
        """The span ``[start, end]`` at the nominal host speed."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.durations[lo:hi]
        if inside:
            own = (end - start) - sum(inside)
        else:
            own = end - start
            inside = self.durations[max(lo - 1, 0):lo + 1]
        return own * NOMINAL_PROBE_S / statistics.fmean(inside)
