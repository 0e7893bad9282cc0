"""Generator-based cooperating processes on top of the event loop.

A *process* is a Python generator that yields *commands*:

* :class:`Timeout` — suspend for a simulated duration,
* :class:`WaitEvent` — suspend until another process triggers a condition,
* another :class:`Process` — suspend until that process terminates.

This mirrors the SimPy programming model but is self-contained (no external
dependencies) and deterministic.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.events import EventLoop


class Timeout:
    """Yield target: suspend the process for *delay* simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay


class WaitEvent:
    """A one-shot condition processes can wait on.

    A process yields the WaitEvent to suspend; another process (or plain
    callback code) calls :meth:`trigger` to resume all waiters with an
    optional value.
    """

    __slots__ = ("_sim", "_triggered", "_value", "_waiters")

    def __init__(self, simulator: "Simulator"):
        self._sim = simulator
        self._triggered = False
        self._value: Any = None
        self._waiters: List["Process"] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the condition, waking every waiting process (FIFO)."""
        if self._triggered:
            raise SimulationError("WaitEvent triggered twice")
        self._triggered = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            loop = self._sim.loop
            now = loop.now
            for proc in waiters:
                loop.schedule_at(now, proc._wake, value)


class Process:
    """A running generator, driven by the simulator's event loop.

    Every wake-up — start, Timeout expiry, WaitEvent trigger, join — is
    an event whose callback is the bound :meth:`_resume`, kept in
    ``_wake``, and whose payload is the value sent into the generator.
    """

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = "proc"):
        self._sim = simulator
        self._loop = simulator.loop
        self._gen = generator
        self.name = name
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Created on first use: most processes are never joined.
        self._done: Optional[WaitEvent] = None
        self._returned = False
        self._wake = self._resume

    @property
    def done(self) -> WaitEvent:
        """WaitEvent that triggers (with the return value) on termination."""
        done = self._done
        if done is None:
            done = self._done = WaitEvent(self._sim)
            if self._returned:
                done.trigger(self.result)
        return done

    @property
    def failed(self) -> bool:
        """True when the process terminated with an uncaught exception."""
        return self.error is not None

    def _start(self) -> None:
        loop = self._loop
        loop.schedule_at(loop.now, self._wake)

    def _resume(self, event) -> None:
        """Event callback: send the event's payload into the generator."""
        if not self.alive:
            return
        try:
            command = self._gen.send(event.payload)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self._returned = True
            if self._done is not None:
                self._done.trigger(stop.value)
            return
        except BaseException as exc:
            # Record which process died before the exception unwinds the
            # event loop — essential when an injected fault escapes a
            # handler deep inside the engine stack (see repro.faults).
            self.alive = False
            self.error = exc
            exc.__notes__ = getattr(exc, "__notes__", []) + [
                f"raised in simulation process {self.name!r}"
            ]
            raise
        if type(command) is Timeout:
            loop = self._loop
            loop.schedule_at(loop.now + command.delay, self._wake)
        else:
            self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        """Park on a yielded WaitEvent or Process (``_resume`` arms Timeouts)."""
        if isinstance(command, WaitEvent):
            if command._triggered:
                loop = self._loop
                loop.schedule_at(loop.now, self._wake, command._value)
            else:
                command._waiters.append(self)
        elif isinstance(command, Process):
            self._dispatch(command.done)
        else:
            raise SimulationError(f"process {self.name!r} yielded unsupported command: {command!r}")

    def interrupt(self) -> None:
        """Terminate the process without resuming it again."""
        self.alive = False
        self._gen.close()


class Simulator:
    """Facade bundling an event loop with process management.

    >>> sim = Simulator()
    >>> def worker():
    ...     yield Timeout(1.5)
    ...     return "done"
    >>> proc = sim.spawn(worker())
    >>> sim.run()
    >>> (round(sim.now, 6), proc.result)
    (1.5, 'done')
    """

    def __init__(self) -> None:
        self.loop = EventLoop()

    @property
    def now(self) -> float:
        return self.loop.now

    def spawn(self, generator: Generator, name: str = "proc") -> Process:
        """Create and start a process from a generator."""
        proc = Process(self, generator, name=name)
        proc._start()
        return proc

    def spawn_many(
        self, generators: Sequence[Generator], name: str = "proc"
    ) -> List[Process]:
        """Spawn a batch of processes in order, one heap operation.

        Semantically identical to ``[spawn(g) for g in generators]`` —
        start events keep FIFO order at the current instant — but the
        start-up train goes through :meth:`EventLoop.schedule_batch`,
        which matters when a workload spawns hundreds of client processes
        (ASDB starts 128) at every experiment start.  Names get a
        ``-<index>`` suffix.
        """
        procs = [
            Process(self, gen, name=f"{name}-{index}")
            for index, gen in enumerate(generators)
        ]
        now = self.loop.now
        self.loop.schedule_batch((now, proc._wake, None) for proc in procs)
        return procs

    def event(self) -> WaitEvent:
        """Create a fresh one-shot wait event."""
        return WaitEvent(self)

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop until it drains or the clock passes *until*."""
        self.loop.run(until=until)
