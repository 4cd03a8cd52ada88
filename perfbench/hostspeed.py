"""The host's speed, sampled by a fixed reference loop, for normalising timings.

The benchmark runs on a shared host whose execution speed drifts: a pure
Python loop timed in 1-second windows ranged from 0.69x to 1.31x of its
median, and the drift lasts longer than a run.  So every timing the
benchmark reports is divided by the host's slowdown while it was taken:
the median, over the samples taken during the timed pass, of the CPU time
of a fixed reference slice over its nominal time ``NOMINAL_S``.  A
reported time is thus the time the pass would take on a host where one
reference slice takes ``NOMINAL_S``.  The reference slice is the
benchmark's own code, so no change to ``fockcalc`` changes it.

The reference slice does the kind of work ``Symbol`` canonicalisation
does: it builds small tuples and lists of complex numbers, sums them into a
dictionary keyed by the tuples, and sorts the keys.  It is timed with
``thread_time`` and with the garbage collector off, so neither waiting for
the GIL nor the size of the program's heap enters it.  Samples are taken
either inline between calls (`Samples.maybe`) or, for a call that runs for
seconds on its own threads, by a `Sampler` thread.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
from time import perf_counter, thread_time

SLICE_ITEMS = 500
NOMINAL_S = 1.1e-3  # CPU seconds of one reference slice at the nominal host speed
EVERY_S = 0.05  # seconds between samples
NEAREST = 9  # samples that set the slowdown of a span with fewer inside it


def reference_slice() -> list:
    terms = []
    for i in range(SLICE_ITEMS):
        key = tuple(range(i % 6))
        terms.append((key, [complex(j, i) * 0.5 for j in key]))
    acc = {}
    for key, coeffs in terms:
        acc[key] = acc.get(key, 0j) + sum(coeffs, 0j)
    return sorted(acc)


def slowdown_now() -> float:
    """CPU time of one reference slice over its nominal time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu = thread_time()
        reference_slice()
        cpu = thread_time() - cpu
    finally:
        if enabled:
            gc.enable()
    return cpu / NOMINAL_S


def slowdown_median(count: int) -> float:
    return statistics.median(slowdown_now() for _ in range(count))


class Samples:
    """Slowdown samples of one run, in time order."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the middle of each slice
        self.values: list[float] = []

    def take(self) -> None:
        start = perf_counter()
        value = slowdown_now()
        self.times.append((start + perf_counter()) / 2)
        self.values.append(value)

    def maybe(self) -> None:
        """Take a sample if the last one is EVERY_S old."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.take()

    def around(self, start: float, end: float) -> float:
        """Median slowdown over [start, end], or of the NEAREST samples to it."""
        times = self.times[:]  # a Sampler thread may append meanwhile
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(times) - NEAREST))
            hi = min(len(times), lo + NEAREST)
        if hi <= lo:
            raise RuntimeError("no host-speed samples")
        return statistics.median(self.values[lo:hi])


class Sampler:
    """A thread that samples every EVERY_S while the `with` block runs."""

    def __init__(self, samples: Samples):
        self.samples = samples
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(EVERY_S):
            self.samples.take()

    def __enter__(self) -> Samples:
        self.samples.take()
        self._thread.start()
        return self.samples

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
