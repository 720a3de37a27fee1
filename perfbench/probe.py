"""Host speed probe: how fast the machine runs pure Python right now.

On a shared virtual machine the same job can take twice as long from one
second to the next, and the speed drifts over minutes.  That drift outlasts
a run, so no statistic over the program's own timings removes it.  The
probe measures it instead: every ``INTERVAL`` seconds a timer signal runs a
fixed flood fill (set and tuple work, like the program's labelings) and
records how long it took.  The probe's own time is subtracted from the timed
spans it fell into.  A span's host speed factor is its probes' mean time
over ``REFERENCE``; dividing the span's time by it gives the time at the
reference speed.  A span that holds fewer than ``MIN_PROBES`` probes takes
the ``MIN_PROBES`` probes around it, half before and half after.

The probe is benchmark code, so nothing the program does changes its work.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL = 0.01
REFERENCE = 0.0002  # seconds one probe takes at the reference speed
MIN_PROBES = 10  # a span with fewer probes takes this many around it
_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_CELLS = frozenset(
    (x, y, z) for x in range(5) for y in range(5) for z in range(5) if (x + y + z) % 7
)


def _flood() -> int:
    """Count the 6-connected components of a fixed 3-D point set."""
    seen = set()
    count = 0
    for p in _CELLS:
        if p in seen:
            continue
        count += 1
        seen.add(p)
        stack = [p]
        while stack:
            x, y, z = stack.pop()
            for dx, dy, dz in _STEPS:
                q = (x + dx, y + dy, z + dz)
                if q in _CELLS and q not in seen:
                    seen.add(q)
                    stack.append(q)
    return count


class HostProbe:
    """Timer-driven probe; ``samples`` holds the duration of every probe."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _fire(self, signum, frame) -> None:
        # A collection started by the probe's allocations would time the
        # program's heap, not the host; it is left to the program's own code
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _flood()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> float:
        """Seconds spent probing since ``mark``, to subtract from a timed span."""
        return sum(self.samples[mark:])

    def factor_over(self, first: int, end: int) -> float:
        """The factor over probes ``first:end``, widened to ``MIN_PROBES``."""
        missing = MIN_PROBES - (end - first)
        if missing > 0:
            first = max(0, first - missing // 2)
            end = min(len(self.samples), first + MIN_PROBES)
            first = max(0, end - MIN_PROBES)
        window = self.samples[first:end]
        return sum(window) / len(window) / REFERENCE

    def factor(self) -> float:
        """Mean probe time over the reference: above 1 means a slow host."""
        return sum(self.samples) / len(self.samples) / REFERENCE
