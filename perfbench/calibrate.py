"""Machine-speed calibration for the end-to-end timings.

A small virtual machine on a shared host runs a plain CPU loop 1.3 to 1.8
times slower for seconds to minutes at a time, and the process's CPU time
slows with it (the slowdown is contention for the core's caches and clock,
not time stolen from the process).  The benchmark therefore samples the
machine's speed while it times the program: an interval timer interrupts the
process every ``INTERVAL_S`` and the signal handler runs a fixed calibration
chunk twice, timing the second run.  An operation's time, less the handler
time inside it, is scaled to a reference speed:

    scaled time = (measured time - handler time inside it)
                  * REFERENCE_CHUNK_S / mean chunk time within WINDOW_S of it

The chunk does the same kinds of work as the program, exact rational
arithmetic, integer loops and permutations of root indices, but calls none
of the program's code, so a change to the program does not move it.  The
untimed first run brings the chunk back into the caches the program has
just used: timed cold, a chunk ran about 10% slower inside the E6 Weyl group
enumeration than inside a small loop, so a change to the program's memory
traffic would have moved the reference it is measured against; timed warm,
the difference was about 2%.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Seconds one chunk takes on the reference machine; a scaled time is the time
# the operation would take there.
REFERENCE_CHUNK_S = 0.00011
INTERVAL_S = 0.005
# Chunks up to this far before an operation starts or after it ends count
# towards its speed, so that a short operation still has many samples.
WINDOW_S = 0.25

clock = time.perf_counter


def chunk() -> int:
    """About a third each of rational arithmetic, a plain integer loop and
    permutations of 72-tuples, the mix whose time tracked the program's best
    when the host's speed drifted."""
    table = {}
    x = Fraction(0)
    for i in range(1, 13):
        x += Fraction(i % 7, i % 11 + 1)
        table[i % 13, i % 5] = x
    total = 0
    for i in range(500):
        total += (i * i) % 7
    perm = tuple(range(72))
    gen = perm[::-1]
    for _ in range(6):
        perm = tuple(perm[gen[k]] for k in range(72))
    return len(table) + total + perm[0]


class Sampler:
    """Time a sequence of operations while sampling the machine's speed.

    Use as a context manager around the operations, call :meth:`begin` and
    :meth:`end` around each, and read :meth:`scaled` after the block.
    """

    def __init__(self):
        self.at: list[float] = []        # when each timed chunk ended
        self.cost: list[float] = [0.0]   # cumulative timed chunk time, one entry ahead
        self.busy = 0.0                  # cumulative time in the handler
        self.spans: list[tuple[float, float, float]] = []   # start, end, handler time inside
        self._inside = 0.0

    def _tick(self, signum, frame) -> None:
        entered = clock()
        chunk()
        start = clock()
        chunk()
        end = clock()
        self.at.append(end)
        self.cost.append(self.cost[-1] + end - start)
        self.busy += end - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> float:
        self._inside = self.busy
        return clock()

    def end(self, start: float) -> None:
        stop = clock()
        self.spans.append((start, stop, self.busy - self._inside))

    def chunk_s(self) -> float:
        """Mean time of the timed chunks."""
        return self.cost[-1] / len(self.at)

    def scaled(self) -> list[float]:
        """Each operation's scaled time, in the order they ran."""
        out = []
        for start, stop, inside in self.spans:
            lo = bisect.bisect_left(self.at, start - WINDOW_S)
            hi = bisect.bisect_right(self.at, stop + WINDOW_S)
            if hi == lo:                 # no chunk ran near it: use them all
                lo, hi = 0, len(self.at)
            chunk_s = (self.cost[hi] - self.cost[lo]) / (hi - lo)
            out.append((stop - start - inside) * REFERENCE_CHUNK_S / chunk_s)
        return out
