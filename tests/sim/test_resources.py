"""Tests for FCFS server, processor sharing, and token bucket."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout
from repro.sim.resources import FcfsServer, ProcessorSharingServer, TokenBucket


class TestFcfsServer:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        spans = []
        def worker(i):
            yield from server.acquire()
            start = sim.now
            yield Timeout(2.0)
            server.release()
            spans.append((i, start, sim.now))
        for i in range(3):
            sim.spawn(worker(i))
        sim.run()
        assert spans == [(0, 0.0, 2.0), (1, 2.0, 4.0), (2, 4.0, 6.0)]

    def test_capacity_two_allows_two_concurrent(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=2)
        done = []
        def worker(i):
            yield from server.acquire()
            yield Timeout(1.0)
            server.release()
            done.append((i, sim.now))
        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]

    def test_wait_time_accounted(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        def worker():
            yield from server.acquire()
            yield Timeout(5.0)
            server.release()
        sim.spawn(worker())
        sim.spawn(worker())
        sim.run()
        assert server.total_wait_time == pytest.approx(5.0)
        assert server.total_acquisitions == 2

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        with pytest.raises(SimulationError):
            server.release()

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FcfsServer(sim, capacity=0)

    @pytest.mark.xfail(strict=True, reason=(
        "release() frees the slot before the woken waiter resumes, so a "
        "same-instant acquirer with an earlier event takes it too; the fix "
        "(charge the slot at release) changes simulated results"))
    def test_same_instant_acquire_does_not_over_admit(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        peak = []

        def holder():
            yield from server.acquire()
            peak.append(server.in_use)
            yield Timeout(1.0)
            server.release()

        def waiter():
            yield Timeout(0.5)
            yield from server.acquire()
            peak.append(server.in_use)
            server.release()

        def latecomer():
            # Its timer fires at t=1 right after the holder's, before
            # the 0-delay wake-up that release() scheduled for waiter.
            yield Timeout(1.0)
            yield from server.acquire()
            peak.append(server.in_use)
            yield Timeout(1.0)
            server.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.spawn(latecomer())
        sim.run()
        assert max(peak) <= server.capacity


class TestProcessorSharing:
    def test_single_job_runs_at_full_rate(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, capacity=2.0)
        finish = []
        def worker():
            yield from cpu.submit(4.0)
            finish.append(sim.now)
        sim.spawn(worker())
        sim.run()
        assert finish == [pytest.approx(2.0)]

    def test_two_equal_jobs_share_capacity(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, capacity=1.0)
        finish = []
        def worker():
            yield from cpu.submit(1.0)
            finish.append(sim.now)
        sim.spawn(worker())
        sim.spawn(worker())
        sim.run()
        # Both jobs run at rate 1/2 -> both complete at t=2.
        assert finish == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_late_arrival_slows_first_job(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, capacity=1.0)
        finish = {}
        def first():
            yield from cpu.submit(2.0)
            finish["first"] = sim.now
        def second():
            yield Timeout(1.0)
            yield from cpu.submit(0.5)
            finish["second"] = sim.now
        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        # First runs alone [0,1) doing 1 unit; shares [1,2) doing 0.5;
        # second finishes its 0.5 at t=2; first then finishes 0.5 at 2.5.
        assert finish["second"] == pytest.approx(2.0)
        assert finish["first"] == pytest.approx(2.5)

    def test_zero_work_completes_immediately(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, capacity=1.0)
        def worker():
            yield from cpu.submit(0.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == 0.0

    def test_work_conservation(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, capacity=3.0)
        def worker(amount):
            yield from cpu.submit(amount)
        for amount in (1.0, 2.5, 0.25, 4.0):
            sim.spawn(worker(amount))
        sim.run()
        assert cpu.total_work_done == pytest.approx(7.75)


class TestTokenBucket:
    def test_unlimited_never_blocks(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=None)
        def worker():
            yield from bucket.consume(1e12)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == 0.0

    def test_rate_limits_throughput(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0)
        def worker():
            for _ in range(5):
                yield from bucket.consume(100.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(5.0)

    def test_burst_allows_initial_spike(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0, burst=100.0)
        def worker():
            yield from bucket.consume(100.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(0.0)

    def test_fifo_ordering(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0)
        order = []
        def big():
            yield from bucket.consume(100.0)
            order.append("big")
        def small():
            yield from bucket.consume(1.0)
            order.append("small")
        sim.spawn(big())
        sim.spawn(small())
        sim.run()
        assert order == ["big", "small"]

    def test_set_rate_takes_effect(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1.0)
        done = []
        def worker():
            yield from bucket.consume(10.0)
            done.append(sim.now)
        def tighten():
            yield Timeout(0.0)
            bucket.set_rate(100.0)
        sim.spawn(worker())
        sim.spawn(tighten())
        sim.run()
        assert done[0] < 10.0

    def test_total_consumed_tracks_all_requests(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1000.0)
        def worker():
            yield from bucket.consume(10.0)
            yield from bucket.consume(20.0)
        sim.spawn(worker())
        sim.run()
        assert bucket.total_consumed == pytest.approx(30.0)

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            TokenBucket(sim, rate=0.0)


class _TokenBucket:
    """Test-only oracle: the fleet's former governance bucket, which
    :meth:`TokenBucket.try_take` replaced with the same arithmetic."""

    def __init__(self, sim, rate_tps, capacity):
        self._sim = sim
        self.rate = rate_tps
        self.capacity = capacity
        self._tokens = capacity
        self._at = sim.now

    def try_spend(self):
        now = self._sim.now
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._at) * self.rate)
        self._at = now
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True


def _script(seed):
    """A random bucket and 400 steps: (gap before the step, take or not).

    Plain uniform floats rather than hypothesis' float strategy, which
    favours round values whose refill arithmetic is exact; rates and gaps
    are on a scale where most takes find the bucket below its cap, so
    the refill arithmetic (not just the clamp) decides.
    """
    rng = random.Random(seed)
    rate = 10 ** rng.uniform(-3.0, 2.0)
    capacity = 10 ** rng.uniform(-1.0, 2.0)
    steps = [(rng.uniform(0.0, 2.0) if rng.random() < 0.9 else 0.0,
              rng.random() < 0.5)
             for _ in range(400)]
    return rate, capacity, steps


_seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestTryTake:
    @settings(max_examples=300, deadline=None)
    @given(seed=_seeds)
    def test_matches_the_lazy_refill_oracle(self, seed):
        rate, capacity, steps = _script(seed)
        sim = SimpleNamespace(now=0.0)
        bucket = TokenBucket(sim, rate, burst=capacity)
        oracle = _TokenBucket(sim, rate, capacity)
        for gap, _ in steps:
            sim.now += gap
            assert bucket.try_take() == oracle.try_spend()
            assert bucket._tokens == oracle._tokens

    @settings(max_examples=100, deadline=None)
    @given(seed=_seeds, reads=st.integers(min_value=1, max_value=4))
    def test_reading_tokens_changes_no_decision(self, seed, reads):
        """Reads between takes, and at take instants, are pure."""
        rate, capacity, steps = _script(seed)
        sim = SimpleNamespace(now=0.0)
        read = TokenBucket(sim, rate, burst=capacity)
        untouched = TokenBucket(sim, rate, burst=capacity)
        for gap, take in steps:
            sim.now += gap
            assert len({read.tokens for _ in range(reads)}) == 1
            if take:
                assert read.try_take() == untouched.try_take()
                assert read._tokens == untouched._tokens

    def test_refusal_then_refill(self):
        sim = SimpleNamespace(now=0.0)
        bucket = TokenBucket(sim, rate=2.0, burst=2.0)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        sim.now = 0.5
        assert bucket.tokens == 1.0
        assert bucket.try_take(1.0)
        assert not bucket.try_take(0.5)
