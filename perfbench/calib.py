"""Host-speed calibration, so timings survive a host that changes speed.

On a shared machine the speed of the CPU a run gets drifts by tens of
percent within seconds, as neighbours come and go.  That drift, not the
program, set most of the run-to-run spread of raw wall times.  So a
measured process pins itself to one CPU (:func:`pin`), and while a round
measures, a *calibrator* thread in that process times a fixed
pure-Python kernel every ``INTERVAL_S``.  The host's speed at time ``t``
is ``REF_KERNEL_S / kernel_time(t)``: 1.0 on a host that runs the kernel
in ``REF_KERNEL_S``, below 1 when the host is slower.  A kernel run is
far shorter than the interpreter's switch interval, so it seldom yields
the interpreter lock to the program's threads: it times the CPU.

A wall interval then converts to *reference seconds* (``ref_s``), the
time the same work would take on the reference host: the wall time
times the mean host speed over the samples around it.  A change to the
program moves ``ref_s`` exactly as it moves wall time, because the
kernel runs none of the program's code; a change in host speed moves
both the wall time and the kernel time, and cancels.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

#: Seconds between kernel samples, and the kernel's size.
INTERVAL_S = 0.05
KERNEL_ROUNDS = 8000
#: Kernel time on the reference host: a 2-vCPU VM with CPython 3.11,
#: at a quiet moment.  It only sets the scale of ``ref_s``.
REF_KERNEL_S = 0.001
#: Samples within this many seconds of an interval's ends also count for
#: it, so that even a short interval has a few.
PAD_S = 0.25


def kernel() -> float:
    """Seconds one fixed run of interpreter work takes: dict and list
    traffic, small-object allocation and string building."""
    start = time.perf_counter()
    table: dict = {}
    items: list = []
    for i in range(KERNEL_ROUNDS):
        key = i & 255
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [key, str(key)]
        entry.append(i)
        if len(entry) > 8:
            items.append(tuple(entry))
            table[key] = [key, entry[1] + "x"]
    items.sort(key=len)
    return time.perf_counter() - start


def pin() -> list[int]:
    """Pin this process to the first CPU it may use; return the others
    (empty on a one-CPU host), for a load generator to use."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    return cpus[1:]


class Calibrator:
    """The calibrator thread: :meth:`start` it when measuring begins and
    :meth:`stop` it when measuring ends; ``stop`` returns its samples."""

    def __init__(self):
        self._thread = None
        self._done = threading.Event()
        self._samples: list[tuple[float, float]] = []

    def start(self) -> None:
        kernel()  # warm up
        self._thread = threading.Thread(target=self._sample,
                                        name="calibrator", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._done.wait(INTERVAL_S):
            began = time.monotonic()
            took = kernel()
            self._samples.append((began + took / 2, took))

    def stop(self) -> "Speed":
        if self._thread is not None:
            self._done.set()
            self._thread.join()
        return Speed(self._samples)


class Speed:
    """Host-speed samples and the conversion of wall intervals to
    reference seconds."""

    def __init__(self, samples: list[tuple[float, float]]):
        samples = sorted(samples)
        self.times = [t for t, _ in samples]
        self._prefix = [0.0]
        for _, took in samples:
            self._prefix.append(self._prefix[-1] + REF_KERNEL_S / took)

    def mean(self, start: float, end: float) -> float:
        """Mean host speed over the samples near ``[start, end]``; the
        nearest sample when none is that near."""
        if not self.times:
            raise RuntimeError("the calibrator recorded no samples")
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if hi <= lo:
            nearest = min(max(lo, 0), len(self.times) - 1)
            lo, hi = nearest, nearest + 1
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds for the wall interval ``[start, end]``."""
        return (end - start) * self.mean(start, end)
