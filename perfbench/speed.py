"""Scale timings to a reference CPU speed.

The machine this benchmark was defined on is a shared 2-vCPU virtual
machine whose speed drifts by up to a quarter within seconds and between
runs, for CPU-bound Python code much alike. A fixed pure-Python kernel
that touches nothing in revpeg is timed between operations, about every
``INTERVAL_S`` seconds and after any longer operation. An operation's
scaled latency is its measured latency times ``REF_SECONDS`` over the
median kernel time measured within ``WINDOW_S`` of it (or within its own
duration, if that is longer): the time the operation would take on a
machine that runs the kernel in ``REF_SECONDS``. revpeg cannot change the
kernel's time, so a change to revpeg moves scaled timings as it moves raw
ones, while drift in the machine's speed cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: About the median kernel time on the machine the benchmark was defined on
#: (Intel Xeon, 2 vCPUs, Python 3.11.7) when it ran fast; scaled timings
#: read as seconds there.
REF_SECONDS = 0.006
INTERVAL_S = 0.2
WINDOW_S = 0.5


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> int:
    """Fixed interpreter work in three kinds that slow down differently on a
    busy machine: integer and dict traffic, small-object allocation, and
    tuple hashing with set and dict updates."""
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    for i in range(10000):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023] ^ i
    objects = []
    for i in range(4000):
        objects.append(_Pair(i, (i, i + 1)))
        if len(objects) > 512:
            objects = []
    seen = set()
    latest = {}
    for i in range(2000):
        key = (i & 255, i >> 3, i % 7)
        seen.add(key)
        latest[key[0]] = _Pair(key[1], key)
        acc += len(latest) + (i ^ key[2])
    return acc + len(seen) + len(objects)


class SpeedReference:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample when the last sample is ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the median kernel time within WINDOW_S, or the
        operation's own duration if longer, of [start, end]."""
        window = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.starts, start - window)
        hi = bisect.bisect_right(self.starts, end + window)
        near = self.seconds[max(0, lo - 1):hi + 1] if lo >= hi else self.seconds[lo:hi]
        return REF_SECONDS / statistics.median(near)

    def median(self) -> float:
        return statistics.median(self.seconds)
