"""Serial sim-kernel bench: vectorized MRC, counter rollups, event heap.

Microbenchmarks the serial hot paths the sweep runner spends its time in,
plus a mini Fig-2 regeneration as the end-to-end guard.  Emits one JSON
document (written to ``BENCH_sim_kernel.json`` at the repo root):

* ``mrc`` — :meth:`MissRatioCurve.mpki` point-at-a-time vs
  :meth:`MissRatioCurve.mpki_array` over the same allocation grid, for
  all four workload MRCs.  The array path must be >= 2x faster and agree
  to float precision (``max_abs_diff``);
* ``counter_rollup`` — report-style rollups (four bandwidth means plus
  the run MPKI, queried repeatedly per measurement, as the figure
  benches do) via per-call Python ``sum`` walks vs the memoized-array
  path in :class:`CounterSeries`.  Must be >= 2x;
* ``events`` — :meth:`EventLoop.schedule_batch` vs one
  :meth:`schedule_at` call per event (scheduling phase only — the drain
  costs the same either way and would drown the comparison in noise),
  drain order asserted identical untimed, plus a mass-cancellation drain
  exercising lazy-deletion compaction.  Batching must be >= 1.0x or the
  path has regressed;
* ``weighted_draw`` — microseconds per weighted transaction-type draw,
  ``Generator.choice(n, p=p)`` vs :func:`weighted_index` over a
  prebuilt :func:`weighted_cdf` (the OLTP client and arrival hot path),
  index sequences asserted identical untimed.  Must be >= 3x;
* ``waterfill`` — a synthetic churn of ~100 concurrent capped jobs on
  the shared core pool (:class:`WaterfillServer`, the OLAP/HTAP hot
  path): microseconds per submit, and the server's events scheduled
  per completion, a deterministic count.  The server arms one pending
  event, so that count is ~2 (one per re-plan); re-arming every job on
  every re-plan would make it ~2n.  Must be <= 3;
* ``dispatch`` — the process layer's per-event cost: microseconds per
  ``Timeout`` round trip (schedule, fire, resume) across
  ``DISPATCH_PROCESSES`` processes sleeping in lockstep, and per
  ``WaitEvent`` hand-off in a ping-pong of the same number of processes
  in pairs.  Each round trip and each hand-off must cost exactly one
  scheduled event (``events_per_timeout``, ``events_per_handoff``);
* ``fig2_mini`` — a short serial ASDB core sweep timed end to end, the
  median of ``FIG2_MINI_RUNS`` GC-paused runs (``points_per_second`` is
  the number the perf-smoke regression check tracks across commits).

Thresholds live in :func:`check_report`; ``benchmarks/check_perf_smoke.py``
re-applies them in CI against the committed baseline.
"""

import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.bench_runner_scaling import effective_cores
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from bench_runner_scaling import effective_cores
from repro.core.sweeps import core_sweep, run_sweep
from repro.hardware.counters import (
    ALL_COUNTERS,
    CounterSeries,
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    INSTRUCTIONS,
    LLC_MISSES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)
from repro.sim.events import EventLoop
from repro.sim.process import Simulator, Timeout
from repro.sim.randomness import weighted_cdf, weighted_index
from repro.sim.waterfill import WaterfillServer
from repro.units import MIB
from repro.workloads import make_workload
from repro.workloads.profiles import execution_profile

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: The four workload MRCs at paper scale factors.
MRC_WORKLOADS = (("asdb", 2000), ("tpce", 5000), ("tpch", 10), ("htap", 5000))
MRC_POINTS = 4000
ROLLUP_TICKS = 100_000      # simulated seconds of counter samples
ROLLUP_PASSES = 50          # report-style repeated queries per series
EVENT_COUNT = 30_000
DRAW_COUNT = 20_000
WATERFILL_SUBMITS = 5_000
WATERFILL_BURST = 60        # jobs at t=0; ~100 active on average
WATERFILL_CAPACITY = 32.0
WATERFILL_CAPS = (1.0, 2.0, 4.0, 8.0, 1.0, 16.0)
DISPATCH_PROCESSES = 128
DISPATCH_ROUNDS = 400
#: ``fig2_mini`` runs per report.  One sweep takes ~0.4 s, and single
#: runs of the same code spread wider than the 20% cross-commit floor
#: ``check_perf_smoke.py --baseline-kernel`` applies, so the report
#: takes their median.
FIG2_MINI_RUNS = 7


def _timings(repeats, fn):
    """Wall times of N runs with the cyclic GC paused during each run.

    The microbenches allocate hundreds of thousands of small objects per
    run; generational collections triggered mid-run add superlinear,
    scheduling-dependent noise that once made the event-batch comparison
    a coin flip.  Collection cost is paid (and measured) by neither side.
    """
    times = []
    for _ in range(repeats):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
            gc.collect()
    return times


def _best_of(repeats, fn):
    return min(_timings(repeats, fn))


def bench_mrc():
    """Scalar vs vectorized miss-ratio-curve evaluation."""
    mrcs = [execution_profile(w, sf).mrc for w, sf in MRC_WORKLOADS]
    allocations = np.linspace(0.5 * MIB, 64 * MIB, MRC_POINTS)
    alloc_list = allocations.tolist()

    def scalar():
        return [[mrc.mpki(a) for a in alloc_list] for mrc in mrcs]

    def vector():
        return [mrc.mpki_array(allocations) for mrc in mrcs]

    scalar_seconds = _best_of(3, scalar)
    vector_seconds = _best_of(3, vector)
    diffs = [
        np.abs(np.asarray(s) - v).max()
        for s, v in zip(scalar(), vector())
    ]
    return {
        "workloads": [f"{w}-{sf}" for w, sf in MRC_WORKLOADS],
        "points": MRC_POINTS,
        "scalar_seconds": round(scalar_seconds, 5),
        "vector_seconds": round(vector_seconds, 5),
        "speedup": round(scalar_seconds / vector_seconds, 1),
        "max_abs_diff": float(max(diffs)),
    }


def bench_counter_rollup():
    """Per-call list walks vs the memoized-array rollup path."""
    series = CounterSeries()
    for k, name in enumerate(ALL_COUNTERS):
        series.rates[name] = [(i % 977) * (k + 1) * 1.37 for i in range(ROLLUP_TICKS)]
    bandwidth = (DRAM_READ_BYTES, DRAM_WRITE_BYTES, SSD_READ_BYTES, SSD_WRITE_BYTES)

    def list_walk():
        out = 0.0
        for _ in range(ROLLUP_PASSES):
            for name in bandwidth:
                values = series.rates[name]
                out += sum(values) / len(values)
            instructions = sum(series.rates[INSTRUCTIONS])
            misses = sum(series.rates[LLC_MISSES])
            out += 1000.0 * misses / instructions
        return out

    def vectorized():
        out = 0.0
        for _ in range(ROLLUP_PASSES):
            for name in bandwidth:
                out += series.mean(name)
            out += series.mean_mpki()
        return out

    list_seconds = _best_of(3, list_walk)
    vector_seconds = _best_of(3, vectorized)
    assert abs(list_walk() - vectorized()) < 1e-6 * abs(list_walk())
    return {
        "ticks": ROLLUP_TICKS,
        "passes": ROLLUP_PASSES,
        "list_walk_seconds": round(list_seconds, 5),
        "vectorized_seconds": round(vector_seconds, 5),
        "speedup": round(list_seconds / vector_seconds, 1),
    }


def _event_times():
    # Deterministic pseudo-shuffled schedule times (no RNG in benches).
    return [((i * 2654435761) % 1000003) / 1000.0 for i in range(EVENT_COUNT)]


def bench_events():
    """Batch scheduling vs one schedule_at per event, plus compaction.

    The timed section is the *scheduling* phase only: draining the heap
    costs the same either way (and dwarfs scheduling), so folding it into
    the timings reduced the batch comparison to coin-flip noise — which
    is how a real batching regression once hid behind a "0.95x, close
    enough" reading.  Drain-order equivalence is asserted separately,
    untimed.
    """
    times = _event_times()

    def _noop(ev):
        return None

    def one_by_one(callback=_noop):
        loop = EventLoop()
        for i, t in enumerate(times):
            loop.schedule_at(t, callback, i)
        return loop

    def batched(callback=_noop):
        loop = EventLoop()
        loop.schedule_batch((t, callback, i) for i, t in enumerate(times))
        return loop

    loop_seconds = _best_of(5, one_by_one)
    batch_seconds = _best_of(5, batched)

    def drain_order(loop):
        fired = []
        while loop.step():
            pass
        return fired

    def record_into(fired):
        return lambda ev: fired.append(ev.payload)

    serial_order: list = []
    batch_order: list = []
    drain_order(one_by_one(record_into(serial_order)))
    drain_order(batched(record_into(batch_order)))
    assert serial_order == batch_order, "batch scheduling changed drain order"

    # Mass cancellation: resource waiters cancel wakeups constantly; the
    # heap must compact instead of carrying the corpses to the end.
    loop = EventLoop()
    events = [loop.schedule_at(t, lambda ev: None) for t in times]
    start = time.perf_counter()
    for event in events[::4]:
        event.cancel()
    for event in events[1::2]:
        event.cancel()
    live_after_cancel = len(loop)
    while loop.step():
        pass
    cancelled_drain_seconds = time.perf_counter() - start

    return {
        "events": EVENT_COUNT,
        "loop_seconds": round(loop_seconds, 5),
        "batch_seconds": round(batch_seconds, 5),
        "batch_speedup": round(loop_seconds / batch_seconds, 2),
        "compactions": loop.compactions,
        "live_after_mass_cancel": live_after_cancel,
        "cancelled_drain_seconds": round(cancelled_drain_seconds, 5),
    }


def bench_weighted_draw():
    """numpy's weighted ``choice`` vs a bisect over a prebuilt CDF."""
    weights = np.array([t.weight for t in
                        make_workload("asdb", 2000).transaction_types()])
    p = weights / weights.sum()
    cdf = weighted_cdf(p)
    n = len(p)

    def numpy_choice():
        rng = np.random.default_rng(0)
        return [int(rng.choice(n, p=p)) for _ in range(DRAW_COUNT)]

    def bisect_cdf():
        rng = np.random.default_rng(0)
        return [weighted_index(rng, cdf) for _ in range(DRAW_COUNT)]

    choice_seconds = _best_of(3, numpy_choice)
    bisect_seconds = _best_of(3, bisect_cdf)
    assert numpy_choice() == bisect_cdf(), (
        "weighted_index drew a different index sequence than choice")
    return {
        "draws": DRAW_COUNT,
        "choice_us": round(choice_seconds / DRAW_COUNT * 1e6, 3),
        "weighted_index_us": round(bisect_seconds / DRAW_COUNT * 1e6, 3),
        "speedup": round(choice_seconds / bisect_seconds, 1),
    }


class _CountingLoop(EventLoop):
    """Counts ``schedule_at`` calls; ``schedule_batch`` is not counted."""

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule_at(self, time, callback, payload=None):
        self.scheduled += 1
        return super().schedule_at(time, callback, payload)


def _waterfill_churn(loop_cls=EventLoop):
    """Drive a WaterfillServer through a deterministic open-loop churn.

    ``WATERFILL_BURST`` jobs arrive at t=0 and the rest arrive at the
    pool's mean service rate; long jobs pile up behind short ones, so
    about 100 are active on average (``mean_active_at_submit``).  The
    arrivals go in with one ``schedule_batch`` and the jobs are driven
    without processes, so every ``schedule_at`` call is the server's.
    """
    jobs = [(0.25 + ((i * 7919) % 1000) / 400.0,
             WATERFILL_CAPS[i % len(WATERFILL_CAPS)])
            for i in range(WATERFILL_SUBMITS)]
    spacing = sum(work for work, _ in jobs) / len(jobs) / WATERFILL_CAPACITY
    sim = Simulator()
    sim.loop = loop_cls()
    server = WaterfillServer(sim, capacity=WATERFILL_CAPACITY)
    active = []

    def arrive(ev):
        active.append(server.active_jobs)
        next(server.submit(*ev.payload))

    sim.loop.schedule_batch(
        (max(0, i - WATERFILL_BURST) * spacing, arrive, job)
        for i, job in enumerate(jobs))
    sim.run()
    assert server.active_jobs == 0, "churn left jobs unfinished"
    return sim.loop, sum(active) / len(active)


def bench_waterfill():
    """Per-submit cost and event economy of the shared core pool."""
    seconds = _best_of(3, _waterfill_churn)
    loop, mean_active = _waterfill_churn(_CountingLoop)
    return {
        "submits": WATERFILL_SUBMITS,
        "mean_active_at_submit": round(mean_active, 1),
        "us_per_submit": round(seconds / WATERFILL_SUBMITS * 1e6, 2),
        "events_per_completion": round(loop.scheduled / WATERFILL_SUBMITS, 3),
    }


def _timeouts(loop_cls=EventLoop):
    """``DISPATCH_PROCESSES`` processes each sleep ``DISPATCH_ROUNDS``
    equal Timeouts, so every instant is a same-time tie."""
    sim = Simulator()
    sim.loop = loop_cls()

    def sleeper():
        for _ in range(DISPATCH_ROUNDS):
            yield Timeout(0.001)

    sim.spawn_many([sleeper() for _ in range(DISPATCH_PROCESSES)])
    sim.run()
    return sim.loop


def _pingpong(loop_cls=EventLoop):
    """Pairs of processes pass a ball back and forth through WaitEvents."""
    sim = Simulator()
    sim.loop = loop_cls()

    def player(gates, me):
        for _ in range(DISPATCH_ROUNDS):
            yield gates[me]
            gates[me] = sim.event()
            gates[1 - me].trigger()

    players = []
    for _ in range(DISPATCH_PROCESSES // 2):
        gates = [sim.event(), sim.event()]
        players += [player(gates, 0), player(gates, 1)]
        gates[0].trigger()
    sim.spawn_many(players)
    sim.run()
    return sim.loop


def bench_dispatch():
    """Per-event cost of Timeout round trips and WaitEvent hand-offs."""
    round_trips = DISPATCH_PROCESSES * DISPATCH_ROUNDS
    timeout_seconds = _best_of(3, _timeouts)
    handoff_seconds = _best_of(3, _pingpong)
    # Start-ups go through one schedule_batch, which is not counted.
    timeout_events = _timeouts(_CountingLoop).scheduled
    handoff_events = _pingpong(_CountingLoop).scheduled
    return {
        "processes": DISPATCH_PROCESSES,
        "rounds": DISPATCH_ROUNDS,
        "timeout_us": round(timeout_seconds / round_trips * 1e6, 3),
        "handoff_us": round(handoff_seconds / round_trips * 1e6, 3),
        "events_per_timeout": round(timeout_events / round_trips, 3),
        "events_per_handoff": round(handoff_events / round_trips, 3),
    }


def bench_fig2_mini(duration_scale):
    """End-to-end serial guard: a short ASDB core sweep (the Fig 2 path),
    timed as the median of ``FIG2_MINI_RUNS`` runs."""
    configs = list(core_sweep("asdb", 2000, duration_scale=duration_scale))
    seconds = statistics.median(
        _timings(FIG2_MINI_RUNS, lambda: run_sweep(configs, jobs=1)))
    return {
        "points": len(configs),
        "runs": FIG2_MINI_RUNS,
        "duration_scale": duration_scale,
        "seconds": round(seconds, 4),
        "points_per_second": round(len(configs) / seconds, 3),
    }


def run_kernel_study(duration_scale):
    return {
        "bench": "sim_kernel",
        "effective_cores": effective_cores(),
        "mrc": bench_mrc(),
        "counter_rollup": bench_counter_rollup(),
        "events": bench_events(),
        "weighted_draw": bench_weighted_draw(),
        "waterfill": bench_waterfill(),
        "dispatch": bench_dispatch(),
        "fig2_mini": bench_fig2_mini(duration_scale * 0.5),
    }


def check_report(report):
    """Acceptance bars for the vectorized kernel, the weighted draw and
    the event economy of the core pool and of process dispatch."""
    mrc = report["mrc"]
    assert mrc["speedup"] >= 2.0, (
        f"mpki_array only {mrc['speedup']}x faster than scalar mpki"
    )
    assert mrc["max_abs_diff"] < 1e-9, (
        f"vectorized MRC diverges from scalar by {mrc['max_abs_diff']}"
    )
    rollup = report["counter_rollup"]
    assert rollup["speedup"] >= 2.0, (
        f"counter rollup only {rollup['speedup']}x faster than list walks"
    )
    events = report["events"]
    assert events["compactions"] >= 1, "mass cancellation never compacted"
    assert events["batch_speedup"] >= 1.0, (
        f"schedule_batch slower than per-event scheduling "
        f"({events['batch_speedup']}x) — batching must win or be removed"
    )
    draw = report["weighted_draw"]
    assert draw["speedup"] >= 3.0, (
        f"weighted_index only {draw['speedup']}x faster than choice"
    )
    waterfill = report["waterfill"]
    assert waterfill["events_per_completion"] <= 3.0, (
        f"waterfill scheduled {waterfill['events_per_completion']} events "
        f"per completion — the core pool must arm one event per re-plan, "
        f"not one per active job"
    )
    dispatch = report["dispatch"]
    for kind in ("timeout", "handoff"):
        assert dispatch[f"events_per_{kind}"] <= 1.0, (
            f"{dispatch[f'events_per_{kind}']} events scheduled per {kind} "
            f"— a process wake-up must cost exactly one event"
        )


def test_sim_kernel(benchmark, emit, duration_scale):
    report = benchmark.pedantic(
        run_kernel_study, args=(duration_scale,), rounds=1, iterations=1,
    )
    check_report(report)
    payload = json.dumps(report, indent=2, sort_keys=True)
    (_REPO_ROOT / "BENCH_sim_kernel.json").write_text(payload + "\n")
    emit("Sim kernel — vectorized MRC / counter rollups / event heap", payload)


def main():
    report = run_kernel_study(0.3)
    check_report(report)
    payload = json.dumps(report, indent=2, sort_keys=True)
    (_REPO_ROOT / "BENCH_sim_kernel.json").write_text(payload + "\n")
    print(payload)


if __name__ == "__main__":
    main()
