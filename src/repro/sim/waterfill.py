"""Capacity sharing with per-job rate caps (water-filling).

The CPU model needs a resource where total capacity ``C`` is shared among
jobs, but job *i* can never use more than its own cap ``m_i`` (a query with
degree of parallelism 4 cannot occupy more than 4 cores even if 32 are
idle).  The fair allocation is *water-filling*: start from an equal split
and redistribute the share that capped jobs cannot use among the rest.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.process import Simulator, WaitEvent


def waterfill(
    capacity: float,
    caps: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> List[float]:
    """Allocate *capacity* among jobs with per-job maxima *caps*.

    Shares are proportional to *weights* (default: the caps themselves,
    so a 32-worker query weighs 32 times a single-worker transaction),
    clipped at each job's cap, with the excess redistributed among the
    unsaturated jobs.

    >>> waterfill(10.0, [1.0, 100.0, 100.0], weights=[1.0, 1.0, 1.0])
    [1.0, 4.5, 4.5]
    """
    n = len(caps)
    if n == 0:
        return []
    if capacity < 0:
        raise SimulationError("negative capacity")
    if weights is None:
        weights = list(caps)
    if len(weights) != n:
        raise SimulationError("weights must match caps")
    if any(w <= 0 for w in weights):
        raise SimulationError("weights must be positive")
    rates = [0.0] * n
    remaining = capacity
    active = list(range(n))
    while active and remaining > 1e-15:
        total_weight = sum(weights[i] for i in active)
        shares = {i: remaining * weights[i] / total_weight for i in active}
        saturated = [i for i in active if caps[i] - rates[i] <= shares[i]]
        if not saturated:
            for i in active:
                rates[i] += shares[i]
            break
        for i in saturated:
            remaining -= caps[i] - rates[i]
            rates[i] = caps[i]
        saturated_set = set(saturated)
        active = [i for i in active if i not in saturated_set]
    return rates


class WaterfillServer:
    """Processor-sharing server with per-job rate caps.

    Jobs submit an amount of work and a cap on the rate at which they may
    be served.  At any instant rates follow :func:`waterfill`.  Every
    change to the job set or the capacity re-plans the rates and arms a
    single completion event, for the job that finishes first; when it
    fires, that job completes and the server re-plans again.
    """

    class _Job:
        __slots__ = ("remaining", "cap", "gate")

        def __init__(self, remaining: float, cap: float, gate: WaitEvent):
            self.remaining = remaining
            self.cap = cap
            self.gate = gate

    def __init__(self, sim: Simulator, capacity: float, name: str = "waterfill"):
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self._sim = sim
        self._capacity = capacity
        self.name = name
        self._jobs: Dict[int, WaterfillServer._Job] = {}
        self._next_id = 0
        self._last_update = 0.0
        self.total_work_done = 0.0
        # Rates from the last re-plan, in job order.  Every change to the
        # job set or the capacity goes _advance -> mutate -> _reschedule,
        # so between re-plans these are exactly what waterfill() returns.
        self._current_rates: Dict[int, float] = {}
        self._event: Optional[Event] = None  # the one pending completion

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change total capacity at runtime (e.g. cpuset change)."""
        if capacity <= 0:
            raise SimulationError(f"{self.name}: capacity must be positive")
        self._advance()
        self._capacity = capacity
        self._reschedule()

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def active_weight(self) -> float:
        """Sum of the active jobs' rate caps (busy-core estimate)."""
        return sum(min(job.cap, self._capacity) for job in self._jobs.values())

    def utilization(self, end_time: float) -> float:
        """Mean fraction of capacity in use over [0, end_time]."""
        self._advance()
        if end_time <= 0:
            return 0.0
        return self.total_work_done / (self._capacity * end_time)

    def _rates(self) -> Dict[int, float]:
        ids = list(self._jobs.keys())
        caps = [self._jobs[i].cap for i in ids]
        rates = waterfill(self._capacity, caps)
        return dict(zip(ids, rates))

    def _advance(self) -> None:
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            for job_id, rate in self._current_rates.items():
                job = self._jobs[job_id]
                done = rate * elapsed
                job.remaining = max(0.0, job.remaining - done)
                self.total_work_done += done
        self._last_update = now

    def _reschedule(self) -> None:
        """Re-plan rates and arm one event for the first job to finish.

        Ties go to the earliest-submitted job, which is the job whose
        event would fire first if every job had its own event armed in
        submission order: same instant, lowest sequence number.
        """
        if self._event is not None:
            self._event.cancel()
            self._event = None
        rates = self._current_rates = self._rates()
        if not rates:
            return
        loop = self._sim.loop
        now = loop.now
        jobs = self._jobs
        first_id = next(iter(rates))
        first_time = math.inf
        for job_id, rate in rates.items():
            when = now + (jobs[job_id].remaining / rate if rate > 0 else math.inf)
            if when < first_time:
                first_id, first_time = job_id, when
        self._event = loop.schedule_at(
            first_time, lambda ev, jid=first_id: self._complete(jid)
        )

    def _complete(self, job_id: int) -> None:
        self._advance()
        job = self._jobs.pop(job_id)
        self._reschedule()
        job.gate.trigger()

    def submit(self, work: float, cap: float) -> Generator:
        """Generator: suspends until *work* is served at rate <= *cap*."""
        if work < 0:
            raise SimulationError(f"{self.name}: negative work {work}")
        if cap <= 0:
            raise SimulationError(f"{self.name}: cap must be positive")
        if work == 0:
            return None
        self._advance()
        gate = self._sim.event()
        self._jobs[self._next_id] = WaterfillServer._Job(work, cap, gate)
        self._next_id += 1
        self._reschedule()
        yield gate
        return None
