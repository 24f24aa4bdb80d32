"""Host speed probe: a fixed interpreter-bound kernel timed on a timer.

On a shared host the same operation can take twice as long from one minute
to the next, with process CPU time equal to wall time throughout: the
process is not descheduled, it runs slower. Averaging over a run does not
remove that drift. The probe measures it: every PERIOD_S a SIGALRM handler
(run by the interpreter in the main thread, so no extra thread) times a
fixed kernel. A measured interval is divided by the mean probe duration over
the same interval, relative to REF_S, and the probe's own time is taken out
of every interval it falls in.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
REF_S = 0.0016  # kernel duration on the reference host (Python 3.11, 2 cores)

clock = time.perf_counter


class _Cell:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def mix(self, x):
        return self.a ^ x


_TABLE = {i: (i * 2654435761) & 1023 for i in range(1024)}
_CELLS = [_Cell(i) for i in range(64)]


def kernel():
    """Dict lookups, list indexing and method calls; allocates no objects
    the garbage collector tracks, so it cannot move the program's GC."""
    table, cells, acc = _TABLE, _CELLS, 0
    for i in range(6000):
        acc += cells[i & 63].mix(table[(i * 7) & 1023])
    return acc


class SpeedProbe:
    """Context manager that samples host speed while it is open."""

    def __init__(self):
        self.samples = []  # (start, duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _fire(self, signum, frame):
        t0 = clock()
        kernel()
        self.samples.append((t0, clock() - t0))

    def _within(self, a, b):
        return [d for t, d in self.samples if a <= t < b]

    def busy(self, a, b):
        """Probe time spent inside [a, b)."""
        return sum(self._within(a, b))

    def slowdown(self, a, b):
        """Mean probe duration over [a, b) relative to REF_S (whole run if
        no probe fired in the interval, 1.0 if none fired at all)."""
        ds = self._within(a, b) or [d for _, d in self.samples]
        return sum(ds) / len(ds) / REF_S if ds else 1.0
