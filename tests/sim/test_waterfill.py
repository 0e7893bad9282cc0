"""Tests for the water-filling capped-share server."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout
from repro.sim.waterfill import WaterfillServer, waterfill


class TestWaterfillFunction:
    def test_empty(self):
        assert waterfill(10.0, []) == []

    def test_single_uncapped(self):
        assert waterfill(10.0, [100.0]) == [10.0]

    def test_single_capped(self):
        assert waterfill(10.0, [3.0]) == [3.0]

    def test_redistribution_unweighted(self):
        rates = waterfill(10.0, [1.0, 100.0, 100.0], weights=[1.0, 1.0, 1.0])
        assert rates == [1.0, 4.5, 4.5]

    def test_default_weights_are_caps(self):
        # A 32-worker job weighs 32x a single-worker job.
        rates = waterfill(10.0, [1.0, 32.0])
        assert rates[0] == pytest.approx(10.0 * 1 / 33)
        assert rates[1] == pytest.approx(10.0 * 32 / 33)

    def test_all_capped_under_capacity(self):
        rates = waterfill(10.0, [2.0, 3.0])
        assert rates == [2.0, 3.0]

    def test_equal_split_when_no_caps_bind(self):
        rates = waterfill(9.0, [100.0, 100.0, 100.0])
        assert rates == [3.0, 3.0, 3.0]

    @given(
        st.floats(min_value=0.1, max_value=1000.0),
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
    )
    def test_invariants(self, capacity, caps):
        rates = waterfill(capacity, caps)
        assert len(rates) == len(caps)
        assert sum(rates) <= capacity + 1e-6
        for rate, cap in zip(rates, caps):
            assert 0 <= rate <= cap + 1e-9
        # Work conservation: either capacity is exhausted or every job is
        # at its cap.
        if sum(caps) >= capacity:
            assert sum(rates) == pytest.approx(capacity, rel=1e-6)
        else:
            assert rates == pytest.approx(caps)


class TestWaterfillServer:
    def test_cap_limits_single_job(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=32.0)
        def worker():
            yield from server.submit(8.0, cap=4.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(2.0)

    def test_two_jobs_share_with_caps(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=4.0)
        results = {}
        def worker(name, work, cap):
            yield from server.submit(work, cap=cap)
            results[name] = sim.now
        # Weighted shares: caps 1 and 3 exactly consume the capacity, so
        # each runs at its cap.
        sim.spawn(worker("capped", 2.0, 1.0))
        sim.spawn(worker("wide", 6.0, 3.0))
        sim.run()
        assert results["capped"] == pytest.approx(2.0)
        assert results["wide"] == pytest.approx(2.0)

    def test_set_capacity_midflight(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=2.0)
        finish = []
        def worker():
            yield from server.submit(4.0, cap=100.0)
            finish.append(sim.now)
        def shrink():
            yield Timeout(1.0)
            server.set_capacity(1.0)
        sim.spawn(worker())
        sim.spawn(shrink())
        sim.run()
        # 2 units done in first second, remaining 2 at rate 1 -> t=3.
        assert finish == [pytest.approx(3.0)]

    def test_utilization_accounting(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=2.0)
        def worker():
            yield from server.submit(2.0, cap=1.0)
        sim.spawn(worker())
        sim.run()
        # 2 units of work on capacity 2 over 2 seconds -> 50% utilization.
        assert server.utilization(end_time=2.0) == pytest.approx(0.5)

    def test_work_conservation_many_jobs(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=3.0)
        amounts = [0.5, 1.0, 2.0, 4.0, 0.25]
        def worker(amount):
            yield from server.submit(amount, cap=2.0)
        for amount in amounts:
            sim.spawn(worker(amount))
        sim.run()
        assert server.total_work_done == pytest.approx(sum(amounts))


class TestWaterfillServerProperties:
    """Property-based checks on the shared core pool."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),   # work
                st.floats(min_value=0.5, max_value=32.0),   # cap
                st.floats(min_value=0.0, max_value=2.0),    # arrival delay
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=1.0, max_value=32.0),
    )
    def test_work_conservation_and_completion(self, jobs, capacity):
        from repro.sim.process import Simulator, Timeout
        sim = Simulator()
        server = WaterfillServer(sim, capacity=capacity)
        done = []
        def worker(delay, work, cap):
            yield Timeout(delay)
            yield from server.submit(work, cap=cap)
            done.append(sim.now)
        for work, cap, delay in jobs:
            sim.spawn(worker(delay, work, cap))
        sim.run()
        assert len(done) == len(jobs)
        total_work = sum(w for w, _, _ in jobs)
        assert server.total_work_done == pytest.approx(total_work, rel=1e-6)
        # No job finishes faster than running alone at its cap allows.
        makespan = max(done)
        lower_bound = max(
            delay + work / min(cap, capacity) for work, cap, delay in jobs
        )
        assert makespan >= lower_bound - 1e-6

    @given(st.floats(min_value=0.1, max_value=8.0))
    def test_single_job_rate_is_min_of_cap_and_capacity(self, cap):
        from repro.sim.process import Simulator
        sim = Simulator()
        server = WaterfillServer(sim, capacity=4.0)
        def worker():
            yield from server.submit(8.0, cap=cap)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(8.0 / min(cap, 4.0), rel=1e-6)


class PerJobWaterfillServer:
    """Oracle: the water-filling server with one completion event per job.

    This is the scheme :class:`WaterfillServer` replaced: every re-plan
    cancels and re-arms the completion event of every active job.  The
    single-event server must reproduce its completions, work accounting
    and utilization exactly.
    """

    class _Job:
        __slots__ = ("remaining", "cap", "gate", "event")

        def __init__(self, remaining, cap, gate):
            self.remaining = remaining
            self.cap = cap
            self.gate = gate
            self.event = None

    def __init__(self, sim, capacity, name="waterfill"):
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self._sim = sim
        self._capacity = capacity
        self.name = name
        self._jobs = {}
        self._next_id = 0
        self._last_update = 0.0
        self.total_work_done = 0.0
        self._busy_time_area = 0.0

    def set_capacity(self, capacity):
        self._advance()
        self._capacity = capacity
        self._reschedule()

    def utilization(self, end_time):
        self._advance()
        if end_time <= 0:
            return 0.0
        return self._busy_time_area / (self._capacity * end_time)

    def _rates(self):
        ids = list(self._jobs.keys())
        caps = [self._jobs[i].cap for i in ids]
        rates = waterfill(self._capacity, caps)
        return dict(zip(ids, rates))

    def _advance(self):
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            for job_id, rate in self._rates().items():
                job = self._jobs[job_id]
                done = rate * elapsed
                job.remaining = max(0.0, job.remaining - done)
                self.total_work_done += done
                self._busy_time_area += done
        self._last_update = now

    def _reschedule(self):
        rates = self._rates()
        for job_id, job in list(self._jobs.items()):
            if job.event is not None:
                job.event.cancel()
            rate = rates.get(job_id, 0.0)
            delay = job.remaining / rate if rate > 0 else float("inf")
            job.event = self._sim.loop.schedule_after(
                delay, lambda ev, jid=job_id: self._complete(jid)
            )

    def _complete(self, job_id):
        self._advance()
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        self._reschedule()
        job.gate.trigger()

    def submit(self, work, cap):
        if work == 0:
            return None
        self._advance()
        gate = self._sim.event()
        self._jobs[self._next_id] = PerJobWaterfillServer._Job(work, cap, gate)
        self._next_id += 1
        self._reschedule()
        yield gate
        return None


# Values on a coarse binary grid, so completions, timeouts and capacity
# changes often land on exactly the same instant.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_WORKS = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 4.0])
_CAPS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 32.0])
_CAPACITIES = st.sampled_from([1.0, 2.0, 3.0, 4.0, 8.0])

_SCRIPTS = st.fixed_dictionaries({
    "capacity": _CAPACITIES,
    # (start delay, [(work, cap), ...] submitted back to back, copies):
    # copies > 1 submits identical jobs at the same instant.
    "workers": st.lists(
        st.tuples(_DELAYS, st.lists(st.tuples(_WORKS, _CAPS),
                                    min_size=1, max_size=3),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=8),
    # Timeouts that only record when they fire.
    "ticks": st.lists(_DELAYS, max_size=6),
    # (delay, new capacity) changes mid-flight.
    "resizes": st.lists(st.tuples(_DELAYS, _CAPACITIES), max_size=3),
})


def _replay(server_cls, script):
    """Run *script* on a fresh *server_cls*; return what it observed."""
    sim = Simulator()
    server = server_cls(sim, capacity=script["capacity"])
    log = []

    def worker(label, delay, jobs):
        yield Timeout(delay)
        for step, (work, cap) in enumerate(jobs):
            yield from server.submit(work, cap)
            log.append((sim.now, f"{label}.{step}"))

    def tick(label, delay):
        yield Timeout(delay)
        log.append((sim.now, label))

    def resize(label, delay, capacity):
        yield Timeout(delay)
        server.set_capacity(capacity)
        log.append((sim.now, label))

    for w, (delay, jobs, copies) in enumerate(script["workers"]):
        for copy in range(copies):
            sim.spawn(worker(f"w{w}c{copy}", delay, jobs))
    for t, delay in enumerate(script["ticks"]):
        sim.spawn(tick(f"tick{t}", delay))
    for r, (delay, capacity) in enumerate(script["resizes"]):
        sim.spawn(resize(f"resize{r}", delay, capacity))
    sim.run()
    end = sim.now
    return log, server.total_work_done, server.utilization(end), end


class TestSingleEventEquivalence:
    """The single-event server is bit-identical to the per-job oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_SCRIPTS)
    def test_matches_per_job_oracle(self, script):
        expected = _replay(PerJobWaterfillServer, script)
        actual = _replay(WaterfillServer, script)
        assert actual == expected

    def test_identical_jobs_complete_in_submission_order(self):
        # Three identical jobs finish at t=1 together with a timeout
        # armed earlier: the timeout fires first, then the jobs in
        # submission order.
        script = {"capacity": 3.0, "ticks": [1.0], "resizes": [],
                  "workers": [(0.0, [(1.0, 1.0)], 3)]}
        log, _, _, _ = _replay(WaterfillServer, script)
        assert log == _replay(PerJobWaterfillServer, script)[0]
        assert log == [(1.0, "tick0"), (1.0, "w0c0.0"), (1.0, "w0c1.0"),
                       (1.0, "w0c2.0")]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(_DELAYS, _WORKS, _CAPS), min_size=1, max_size=20),
        st.lists(st.tuples(_DELAYS, _CAPACITIES), max_size=3),
    )
    def test_at_most_one_live_event(self, jobs, resizes):
        sim = Simulator()
        loop = sim.loop
        server = WaterfillServer(sim, capacity=4.0)
        drivers = set()
        for delay, work, cap in jobs:
            gen = server.submit(work, cap)
            drivers.add(loop.schedule_at(delay, lambda ev, g=gen: next(g)))
        for delay, capacity in resizes:
            drivers.add(loop.schedule_at(
                delay, lambda ev, c=capacity: server.set_capacity(c)))
        fired = 0
        while loop.step():
            live = [entry[2] for entry in loop._heap
                    if not entry[2].cancelled and entry[2] not in drivers]
            assert len(live) == (1 if server.active_jobs else 0)
            fired += 1
        # One driver event per submit and resize, one completion per job.
        assert fired == len(jobs) * 2 + len(resizes)
