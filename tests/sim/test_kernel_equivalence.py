"""The serial kernel against a frozen copy of its earlier implementation.

:class:`OracleEventLoop`, :class:`OracleWaitEvent`, :class:`OracleProcess`
and :class:`OracleSimulator` below are the event loop and process layer
as they were before dispatch was tuned: ``run`` called ``peek_time``
before every ``step``, every ``schedule_at`` checked for compaction, and
every Timeout, wait-event wake-up and process start built a fresh lambda.
The tuned kernel must fire the same callbacks at the same instants in the
same order.

Hypothesis drives both kernels with the same random process scripts —
zero and equal delays (exact same-instant ties), wait events triggered
before and after being waited on, joins, ``spawn_many``, mass
cancellation that compacts the heap, ``interrupt`` and ``run(until=...)``
— and the ``(time, label)`` logs, final clocks and process outcomes are
compared with ``==``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import COMPACT_FRACTION, COMPACT_MIN_CANCELLED
from repro.sim.process import Simulator, Timeout


# -- the oracle: the kernel before dispatch was tuned --------------------------


class OracleEvent:
    __slots__ = ("time", "callback", "payload", "cancelled", "fired", "_loop")

    def __init__(self, time, callback, payload=None):
        self.time = time
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.fired = False
        self._loop = None

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._note_cancelled()


class OracleEventLoop:
    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, OracleEvent]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._cancelled = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule_at(self, time, callback, payload=None) -> OracleEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < {self._now}")
        event = OracleEvent(time, callback, payload)
        event._loop = self
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._maybe_compact()
        return event

    def schedule_after(self, delay, callback, payload=None) -> OracleEvent:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback, payload)

    def schedule_batch(self, entries) -> List[OracleEvent]:
        events = list(itertools.starmap(OracleEvent, entries))
        if not events:
            return events
        earliest = min(event.time for event in events)
        if earliest < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {earliest} < {self._now}")
        for event in events:
            event._loop = self
        seq = self._seq
        self._seq = seq + len(events)
        staged = [(event.time, number, event)
                  for number, event in enumerate(events, seq)]
        heap = self._heap
        if len(staged) > len(heap):
            heap.extend(staged)
            heapq.heapify(heap)
        else:
            for entry in staged:
                heapq.heappush(heap, entry)
        self._maybe_compact()
        return events

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (
            self._cancelled > COMPACT_MIN_CANCELLED
            and self._cancelled > COMPACT_FRACTION * len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0
            self.compactions += 1

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            event.fired = True
            event.callback(event)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False


class OracleWaitEvent:
    def __init__(self, simulator):
        self._sim = simulator
        self._triggered = False
        self._value: Any = None
        self._waiters: List["OracleProcess"] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError("WaitEvent triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim.loop.schedule_after(
                0.0, lambda ev, p=proc: p._resume(value))

    def _add_waiter(self, proc) -> None:
        self._waiters.append(proc)


class OracleProcess:
    def __init__(self, simulator, generator, name="proc"):
        self._sim = simulator
        self._gen = generator
        self.name = name
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._done = OracleWaitEvent(simulator)

    @property
    def done(self) -> OracleWaitEvent:
        return self._done

    def _start(self) -> None:
        self._sim.loop.schedule_after(0.0, lambda ev: self._resume(None))

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self._done.trigger(stop.value)
            return
        except BaseException as exc:
            self.alive = False
            self.error = exc
            raise
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Timeout):
            self._sim.loop.schedule_after(
                command.delay, lambda ev: self._resume(None))
        elif isinstance(command, OracleWaitEvent):
            if command.triggered:
                self._sim.loop.schedule_after(
                    0.0, lambda ev: self._resume(command.value))
            else:
                command._add_waiter(self)
        elif isinstance(command, OracleProcess):
            self._dispatch(command.done)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command")

    def interrupt(self) -> None:
        self.alive = False
        self._gen.close()


class OracleSimulator:
    def __init__(self) -> None:
        self.loop = OracleEventLoop()

    @property
    def now(self) -> float:
        return self.loop.now

    def spawn(self, generator, name="proc") -> OracleProcess:
        proc = OracleProcess(self, generator, name=name)
        proc._start()
        return proc

    def spawn_many(self, generators, name="proc") -> List[OracleProcess]:
        procs = [OracleProcess(self, gen, name=f"{name}-{index}")
                 for index, gen in enumerate(generators)]
        now = self.loop.now
        self.loop.schedule_batch(
            (now, lambda ev, p=proc: p._resume(None), None) for proc in procs)
        return procs

    def event(self) -> OracleWaitEvent:
        return OracleWaitEvent(self)

    def run(self, until: Optional[float] = None) -> None:
        self.loop.run(until=until)


# -- random process scripts ----------------------------------------------------

#: Delays come from a small set so that same-instant ties are common.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5])
EVENT_IDS = st.integers(min_value=0, max_value=3)
PROC_IDS = st.integers(min_value=0, max_value=7)

OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("wait"), EVENT_IDS),
    st.tuples(st.just("trigger"), EVENT_IDS),
    st.tuples(st.just("join"), PROC_IDS),
    st.tuples(st.just("child"), DELAYS),
    st.tuples(st.just("spawn_many"), st.lists(DELAYS, min_size=1, max_size=4)),
    st.tuples(st.just("cancel"), st.integers(min_value=1, max_value=200)),
    st.tuples(st.just("interrupt"), PROC_IDS),
)

SCRIPTS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=8)
UNTIL = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.25, 4.0]))


def _child(sim, log, label, delay):
    yield Timeout(delay)
    log.append((sim.now, f"{label}:done"))
    return label


def _script(sim, log, index, ops, gates, procs):
    """One scripted process; every resumption is logged with the clock."""
    for step, (op, arg) in enumerate(ops):
        label = f"p{index}.{step}"
        if op == "timeout":
            yield Timeout(arg)
            log.append((sim.now, f"{label}:timeout"))
        elif op == "wait":
            value = yield gates[arg]
            log.append((sim.now, f"{label}:woke:{value}"))
        elif op == "trigger":
            if not gates[arg].triggered:
                gates[arg].trigger(label)
                log.append((sim.now, f"{label}:triggered"))
        elif op == "join":
            target = procs[arg % len(procs)]
            if target is not procs[index]:
                value = yield target
                log.append((sim.now, f"{label}:joined:{value}"))
        elif op == "child":
            value = yield sim.spawn(_child(sim, log, label, arg))
            log.append((sim.now, f"{label}:child:{value}"))
        elif op == "spawn_many":
            children = sim.spawn_many(
                [_child(sim, log, f"{label}.{i}", d)
                 for i, d in enumerate(arg)], name=label)
            value = yield children[-1]
            log.append((sim.now, f"{label}:many:{value}"))
        elif op == "cancel":
            # Schedule a train of plain callbacks at tied instants and
            # cancel all but every seventh: enough corpses to compact.
            events = [
                sim.loop.schedule_at(
                    sim.now + (i % 3) * 0.5,
                    lambda ev, tag=f"{label}.{i}": log.append(
                        (sim.now, f"{tag}:fired")))
                for i in range(arg)
            ]
            for i, event in enumerate(events):
                if i % 7:
                    event.cancel()
            log.append((sim.now, f"{label}:cancelled"))
        elif op == "interrupt":
            target = procs[arg % len(procs)]
            if target is not procs[index] and target.alive:
                target.interrupt()
                log.append((sim.now, f"{label}:interrupted"))
    return f"p{index}"


def _drive(sim, scripts, until):
    log: List[Tuple[float, str]] = []
    gates = [sim.event() for _ in range(4)]
    procs: List[Any] = []
    for index, ops in enumerate(scripts):
        procs.append(sim.spawn(_script(sim, log, index, ops, gates, procs),
                               name=f"p{index}"))
    clocks = []
    if until is not None:
        sim.run(until=until)
        clocks.append(sim.now)
        log.append((sim.now, "until"))
    sim.run()
    clocks.append(sim.now)
    outcomes = [(proc.alive, proc.result) for proc in procs]
    return log, clocks, outcomes


@settings(max_examples=300, deadline=None)
@given(SCRIPTS, UNTIL)
def test_kernel_matches_oracle(scripts, until):
    assert _drive(Simulator(), scripts, until) == \
        _drive(OracleSimulator(), scripts, until)


def test_joining_a_finished_process_resumes_at_once():
    for sim in (Simulator(), OracleSimulator()):
        log: List[Tuple[float, str]] = []
        child = sim.spawn(_child(sim, log, "c", 1.0))

        def late_joiner():
            yield Timeout(2.0)
            value = yield child
            log.append((sim.now, f"joined:{value}"))

        sim.spawn(late_joiner())
        sim.run()
        assert log == [(1.0, "c:done"), (2.0, "joined:c")]


def test_mass_cancellation_compacts_and_keeps_order():
    def drive(sim):
        log: List[Tuple[float, str]] = []
        ops = [("cancel", 4 * COMPACT_MIN_CANCELLED), ("timeout", 0.5),
               ("cancel", 4 * COMPACT_MIN_CANCELLED)]
        sim.spawn(_script(sim, log, 0, ops, [], []))
        sim.run()
        return log, sim.now, sim.loop.compactions

    new, oracle = drive(Simulator()), drive(OracleSimulator())
    assert new[:2] == oracle[:2]
    assert new[2] >= 1 and oracle[2] >= 1
