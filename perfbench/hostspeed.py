"""Host-speed calibration of the benchmark's timings.

A shared host changes speed by a quarter or more for seconds to minutes
at a time (other tenants share its cores and caches), and the change
moves every timing the benchmark takes.  So a fixed pure-Python kernel
is timed between set-ups and between requests, and every timing is
scaled by

    (REFERENCE_S / median kernel time of its phase) ** SENSITIVITY

where the phases are the set-ups and the measured passes.

Timings are therefore reported in seconds *at the reference speed*: the
host speed at which the kernel takes ``REFERENCE_S``.  The kernel is the
benchmark's own code and never calls the program, so a change to the
program moves the scaled timings in full; only the host's drift is
divided out.

The kernel mixes the two kinds of work the program does, because they
slow down by different amounts when the host does: heap and dict
operations on a small working set (the event loop), and lookups that
miss the CPU caches in a table of about 13 MB (the program's large
object graph).  A heap-only kernel slowed down more than the sweeps did.
Even so the program's times change less than the kernel's when the host
speeds up or slows down: across host swings in which the kernel's time
changed 1.7 to 2.7-fold, each workload's unscaled time changed as the
kernel's to the power 0.63 (fleet) to 0.81 (what-if), about 0.77 for the
sweeps.  ``SENSITIVITY`` is that power; with 1 a swing of that size
would still move the scaled times by a quarter or more.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import List, Tuple

#: Kernel time at the reference speed (a typical warm median on the
#: 2-vCPU Xeon host the benchmark was built on; runs there saw 1.3-4 ms).
REFERENCE_S = 2.0e-3

#: How the program's times follow the kernel's across host speeds.
SENSITIVITY = 0.75

#: Seconds of requests between two calibrations.
INTERVAL_S = 0.1

#: Kernel timings per second of requests, so every workload's run rests
#: on a few hundred, and the bounds on timings per calibration.
DENSITY = 20
MIN_SAMPLES, MAX_SAMPLES = 2, 20

_LIST_SIZE = 250_000
_DICT_SIZE = 50_000
_LOOKUPS = 3000


class HostSpeed:
    """Kernel timings taken through one phase of a run, and its scale."""

    def __init__(self):
        rng = random.Random(0)
        self._list = [float(i) for i in range(_LIST_SIZE)]
        self._dict = {i: i * 0.5 for i in range(_DICT_SIZE)}
        self._list_keys = [rng.randrange(_LIST_SIZE) for _ in range(_LOOKUPS)]
        self._dict_keys = [rng.randrange(_DICT_SIZE) for _ in range(_LOOKUPS)]
        self._samples: List[float] = []
        self._last = time.perf_counter()

    def kernel(self) -> float:
        """Fixed work: 1,500 heap pushes, pops and dict updates, then
        3,000 random list and 3,000 random dict lookups."""
        heap: List = []
        totals = {}
        for i in range(1500):
            heapq.heappush(heap, (((i * 7919) % 1009) * 0.5, i))
            key = i & 127
            totals[key] = totals.get(key, 0.0) + i * 0.25
        while heap:
            heapq.heappop(heap)
        total = sum(totals.values())
        table = self._list
        for key in self._list_keys:
            total += table[key]
        table = self._dict
        for key in self._dict_keys:
            total += table[key]
        return total

    def calibrate(self, samples: int = MIN_SAMPLES) -> None:
        """Time the kernel *samples* times after one untimed run that
        brings its tables back into the caches, with the collector off:
        so neither the program's cache footprint nor its heap size
        leaks into the timing."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
            for _ in range(samples):
                start = clock()
                self.kernel()
                self._samples.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = clock()

    def calibrate_if_due(self) -> None:
        gap = time.perf_counter() - self._last
        if gap >= INTERVAL_S:
            self.calibrate(min(MAX_SAMPLES,
                               max(MIN_SAMPLES, round(gap * DENSITY))))

    def end_phase(self) -> Tuple[float, int]:
        """The factor from this host's seconds to reference seconds over
        the phase that ends now, and how many timings it rests on."""
        if not self._samples:  # a phase too short to have calibrated
            self.calibrate()
        samples, self._samples = self._samples, []
        return ((REFERENCE_S / statistics.median(samples)) ** SENSITIVITY,
                len(samples))
