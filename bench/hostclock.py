"""Host-speed clock: times an operation in quiet-host seconds.

The benchmark runs on a shared machine whose speed changes in phases: for
seconds to minutes at a time, identical work runs 35-90 % slower, in CPU
time as much as in wall time.  A median over a run cannot remove a phase
that covers the whole run, so every timed operation is also scaled by the
host's speed while it ran.

The speed is sampled by timing a fixed reference computation (``reference``,
pure-Python float arithmetic and list indexing, like the program's own inner
loops) just before and just after the operation, and
every ``INTERVAL_S`` seconds during it from a ``SIGALRM`` handler.  A
sample's speed is ``REF_S`` over its time, so it is 1 on a quiet host of the
reference kind and about 0.6 in a slow phase.  The quiet-host time of an
operation is its wall time, less the time spent in samples, times the mean
speed over its samples to the power ``SENSITIVITY``: the work done, in
seconds of a quiet host.  Raw
times are kept next to it, so the scaling can always be checked.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Time of one ``reference()`` call on a quiet host: the fast mode of its
#: timings on an Intel Xeon (2 vCPU, shared) with CPython 3.11.
REF_S = 5.1e-4
#: Seconds between samples while an operation runs.
INTERVAL_S = 0.025
#: A sample slower than this many ``REF_S`` was interrupted, not slowed by
#: the host's phase; it counts as this slow.
CAP = 3.0
#: How much more the program slows than ``reference`` in a slow phase, as
#: the exponent of the speed: over 4 minutes of the workloads' operations
#: on the host named above, log time against log sampled speed had slopes
#: of -1.23 (generate), -1.31 (sweep), -1.33 (heuristic calibration) and
#: -0.96 (exact calibration).
SENSITIVITY = 1.25


def reference() -> float:
    """Fixed work whose time tracks the host's speed.  Pure Python, so that
    timing an import does not load anything first."""
    total = 0.0
    table = [0.0] * 64
    for i in range(5000):
        x = i * 0.001
        total += x * x - 0.5 * x
        table[i & 63] = total
    return total + table[7]


class HostClock:
    """Samples the host's speed; ``measure`` times one call with it."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - t0
        self.speeds.append(REF_S / min(elapsed, CAP * REF_S))
        self.spent += elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def measure(self, fn, cpu_clock=time.process_time):
        """Call ``fn()``; return its result and its times.

        The times are ``wall_s`` and ``cpu_s`` as measured, with the time
        spent in samples taken out, ``speed`` (the mean sampled speed) and
        ``quiet_wall_s``/``quiet_cpu_s``, the two times scaled by
        ``speed ** SENSITIVITY``.
        """
        self.sample()
        first, spent0 = len(self.speeds) - 1, self.spent
        c0, t0 = cpu_clock(), time.perf_counter()
        result = fn()
        t1, c1 = time.perf_counter(), cpu_clock()
        spent = self.spent - spent0
        self.sample()
        speed = statistics.fmean(self.speeds[first:])
        scale = speed**SENSITIVITY
        wall = max(t1 - t0 - spent, 0.0)
        cpu = max(c1 - c0 - spent, 0.0)
        return result, {
            "wall_s": wall,
            "cpu_s": cpu,
            "speed": speed,
            "quiet_wall_s": wall * scale,
            "quiet_cpu_s": cpu * scale,
        }
