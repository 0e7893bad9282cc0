"""Event heap and simulation clock.

The :class:`EventLoop` is a classic calendar: events are ``(time, seq)``
ordered in a binary heap, where ``seq`` is a monotonically increasing tie
breaker so that events scheduled at the same instant fire in FIFO order and
runs are fully deterministic.

Cancelled events are removed lazily: :meth:`Event.cancel` only sets a flag,
and the loop skips flagged entries as they surface at the heap top.  The
fluid servers (:class:`~repro.sim.waterfill.WaterfillServer`,
:class:`~repro.sim.resources.ProcessorSharingServer`) keep one pending
completion event each, so a re-plan cancels at most one entry and no
longer floods the heap.  Timers (grant-wait timeouts, token-bucket
refills) still cancel wakeups, so the loop counts live cancellations and
*compacts* — rebuilds and re-heapifies the live entries, in place — once
corpses outnumber half the heap.  Only :meth:`Event.cancel` makes
corpses, so only it checks; when compaction runs cannot change firing
order, because ``(time, seq)`` is a total order.
:meth:`EventLoop.schedule_batch` amortizes bulk scheduling (N client
start-ups, a tick train) into one heapify instead of N pushes where that
is cheaper.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: Compaction trigger: corpses must outnumber both this floor and half the
#: heap.  The floor keeps tiny heaps from compacting constantly; the
#: fraction bounds wasted heap memory and pop work at a constant factor.
COMPACT_MIN_CANCELLED = 64
COMPACT_FRACTION = 0.5


class Event:
    """A schedulable occurrence with an optional payload.

    An event may be *cancelled* before it fires; cancelled events stay in
    the heap but are skipped by the loop (lazy deletion).
    """

    __slots__ = ("time", "callback", "payload", "cancelled", "fired", "_loop")

    def __init__(
        self,
        time: float,
        callback: Callable[["Event"], None],
        payload: Any = None,
        loop: Optional["EventLoop"] = None,
    ):
        self.time = time
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.fired = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, {state})"


class EventLoop:
    """A deterministic discrete-event calendar.

    >>> loop = EventLoop()
    >>> out = []
    >>> _ = loop.schedule_at(2.0, lambda ev: out.append("b"))
    >>> _ = loop.schedule_at(1.0, lambda ev: out.append("a"))
    >>> loop.run()
    >>> out
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Current simulation time in seconds; only the loop advances it.
        self.now = 0.0
        self._running = False
        self._cancelled = 0    # cancelled events still sitting in the heap
        self.compactions = 0   # lifetime compaction sweeps (observability)

    def __len__(self) -> int:
        """Heap entries, including not-yet-collected cancelled ones."""
        return len(self._heap)

    def schedule_at(self, time: float, callback: Callable[[Event], None], payload: Any = None) -> Event:
        """Schedule *callback* to fire at absolute simulation time *time*."""
        if time < self.now:
            raise SimulationError(f"cannot schedule event in the past: {time} < {self.now}")
        event = Event(time, callback, payload, self)
        heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[[Event], None], payload: Any = None) -> Event:
        """Schedule *callback* to fire *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, payload)

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, Callable[[Event], None], Any]],
    ) -> List[Event]:
        """Schedule many ``(time, callback, payload)`` entries at once.

        Equivalent to ``schedule_at`` per entry — same FIFO tie-breaking,
        in iteration order — but amortized: the loop-invariant lookups
        (clock, sequence counter, heap) are hoisted out of the per-entry
        path, and a batch larger than the live heap is folded in with one
        O(n) heapify instead of per-entry pushes.
        """
        events = list(itertools.starmap(Event, entries))
        if not events:
            return events
        earliest = min(event.time for event in events)
        if earliest < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {earliest} < {self.now}"
            )
        for event in events:
            event._loop = self
        seq = self._seq
        self._seq = seq + len(events)
        staged = [(event.time, number, event)
                  for number, event in enumerate(events, seq)]
        heap = self._heap
        if len(staged) > len(heap):
            heap.extend(staged)
            heapify(heap)
        else:
            for entry in staged:
                heappush(heap, entry)
        return events

    def _note_cancelled(self) -> None:
        """Count a corpse; purge them all once they dominate the heap."""
        self._cancelled += 1
        heap = self._heap
        if (
            self._cancelled > COMPACT_MIN_CANCELLED
            and self._cancelled > COMPACT_FRACTION * len(heap)
        ):
            # In place: :meth:`run` holds the heap list across callbacks.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._cancelled = 0
            self.compactions += 1

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if none remain."""
        heap = self._heap
        while heap:
            time, _, event = heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            event.fired = True
            event.callback(event)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the heap drains or the clock passes *until*.

        When *until* is given the clock is advanced to exactly *until* at
        the end of the run, even if the last event fired earlier.

        The heap head is read inline rather than through
        :meth:`peek_time`, but every event still fires through one
        :meth:`step` call (bound once, at run start), so a wrapper
        installed on ``step`` before the run sees every event.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        step = self.step
        heap = self._heap
        limit = math.inf if until is None else until
        try:
            while heap:
                head = heap[0]
                if head[2].cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                elif head[0] > limit:
                    break
                else:
                    step()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
