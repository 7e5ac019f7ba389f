"""In-process sampling of the host's speed, to take host contention out of
the benchmark's host times.

On a shared host the CPU time of one identical repetition moves by 30% or
more within seconds: the virtual CPU is slowed or preempted by other work,
and that time is charged to the process.  :class:`HostSpeed` interleaves a
fixed probe with the measured code.  A profiling interval timer
(``ITIMER_PROF``) interrupts the process every :data:`INTERVAL_S` of its
CPU time, and the handler times :func:`probe`, a short fixed piece of
interpreter work.  Each sample is the host's slowdown at that moment, as
seen by the same process on the same CPU.  (A probe of dict lookups alone
tracked the simulator worse under some kinds of load; one over a large,
cache-missing table much worse.)

Samples fall uniformly in CPU time, so the mean of ``REF_PROBE_S / probe``
over a window is the share of the window's CPU time that the unloaded
reference host would have needed.  :meth:`HostSpeed.window` returns that
factor with the probe time spent in the window; the benchmark subtracts
the probe time and scales the rest by the factor.  The figures are
"seconds at the reference speed": the probe's time on an unloaded core,
:data:`REF_PROBE_S`, is a constant, so a faster host reads faster.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from array import array

# CPU time between two samples: ~1% of it goes to the probe.
INTERVAL_S = 0.01
PROBE_EVENTS = 96
# Time of one probe on an unloaded core of a 2-core Xeon container with
# Python 3.11; only a scale, the same for every commit.
REF_PROBE_S = 75e-6


class _Event:
    __slots__ = ("t", "seq", "owner", "value")

    def __init__(self, t, seq, owner, value):
        self.t, self.seq, self.owner, self.value = t, seq, owner, value


_OWNERS = dict.fromkeys(range(16), 0)


def probe() -> int:
    """Fixed interpreter work of the simulator's kinds (object creation,
    attribute reads, a heap of tuples, dict updates) that no change to the
    simulator can touch.  The garbage collector is off while it runs: it
    frees everything it allocates, so the collector's counts are as if it
    had not run, and no collection of the simulator's objects lands in a
    sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap = []
        for i in range(PROBE_EVENTS):
            ev = _Event(i * 0.5, i, i & 15, i)
            heapq.heappush(heap, (ev.t, ev.seq, ev))
        n = 0
        while heap:
            ev = heapq.heappop(heap)[2]
            _OWNERS[ev.owner] += 1
            n += ev.value
        return n
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the host's speed while installed.  Sample times are
    ``time.perf_counter()`` readings."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def install(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        # array.append allocates no container.
        self.at.append(t0)
        self.took.append(t1 - t0)

    def window(self, t0: float, t1: float) -> tuple[int, float, float]:
        """Samples taken in ``[t0, t1)``: their number, the probe time
        spent, and the factor from host time to reference time (1.0
        without samples)."""
        took = [d for t, d in zip(self.at, self.took) if t0 <= t < t1]
        if not took:
            return 0, 0.0, 1.0
        factor = sum(REF_PROBE_S / d for d in took) / len(took)
        return len(took), sum(took), factor
