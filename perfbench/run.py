"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload oltp-sweep --seed 1 --seconds 20 --trace 0

The workload's requests (see ``suites.py``) run in passes until
``--seconds`` of measurement have elapsed.  With ``--trace 0`` every pass
is untraced and the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate, the per-layer metrics come from
the traced passes, and the spans are written as Chrome trace-event JSON
under ``.bench_work/traces/``.  Every result is checked: against the
reference digests in ``reference.json`` for the reference seed, and for
nan/inf on every seed.  Every end-to-end timing is scaled to the
reference host speed by a calibration kernel timed between set-ups and
between requests (``hostspeed.py``), so the host's own drift in speed
is divided out.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--write-reference`` runs one untraced pass and stores its digests as
the reference for that workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ROOT / ".bench_work"

#: Set-up runs per benchmark run: at least ``SETUP_REPEATS``, more while
#: they take less than ``SETUP_SECONDS`` in all; ``setup_s`` is their
#: median.  Cheap set-ups (a few ms) need many runs to give a steady one.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MAX_SETUP_REPEATS = 100

#: Failures printed in full to standard error (the rest are counted).
MAX_REPORTED_FAILURES = 5


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time; 0 runs the minimum passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digests file")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Tally:
    """Outcomes and timings of every request of one run.  Memory stays
    the same however many passes run: per request a running sum of its
    untraced wall time, per untraced pass its latency percentiles."""

    def __init__(self, requests: int):
        self.attempted = 0
        self.failed = 0
        self.seconds = [0.0] * requests
        self.calls = [0] * requests
        self.pass_p50: List[float] = []
        self.pass_p99: List[float] = []
        self.items = [0] * requests
        self.pass_seconds: Dict[bool, List[float]] = {False: [], True: []}
        self.counts: Dict[str, float] = {}
        self.digests: List[Optional[str]] = [None] * requests

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def add_pass(self, samples: List[float]) -> None:
        """Latency percentiles of one untraced pass's requests."""
        if not samples:
            return
        self.pass_p50.append(statistics.median(samples))
        self.pass_p99.append(
            statistics.quantiles(samples, n=100, method="inclusive")[98]
            if len(samples) > 1 else samples[0])


def run_pass(workload, number: int, tally: Tally, tracer, speed,
             reference: Optional[List[str]]) -> None:
    """One pass over every request; checks run after the timed calls,
    host-speed calibrations between them."""
    clock = time.perf_counter
    results = []
    samples: List[float] = []
    elapsed_total = 0.0
    workload.begin_pass(number)
    try:
        try:
            if tracer is not None:
                tracer.install()
            for index in range(len(workload.requests)):
                if tracer is not None:
                    tracer.request = index
                start = clock()
                try:
                    result = workload.run(index)
                except Exception:  # boundary: count it, keep measuring
                    elapsed_total += clock() - start
                    tally.attempted += 1
                    tally.fail(f"request {index}:\n{traceback.format_exc()}")
                    continue
                elapsed = clock() - start
                elapsed_total += elapsed
                if tracer is None:
                    tally.seconds[index] += elapsed
                    tally.calls[index] += 1
                    samples.append(elapsed)
                results.append((index, result))
                speed.calibrate_if_due()
        finally:
            if tracer is not None:
                tracer.uninstall()
        tally.pass_seconds[tracer is not None].append(elapsed_total)
        if tracer is None:
            tally.add_pass(samples)
        for index, result in results:
            check_one(workload, index, result, tally, reference,
                      observe=tracer is not None)
    finally:
        workload.end_pass()


def check_one(workload, index, result, tally, reference, observe) -> None:
    from suites import CheckFailed

    tally.attempted += 1
    tally.items[index] = workload.items(result)
    try:
        workload.check(index, result)
        digest = workload.digest(result)
        tally.digests[index] = digest
        if reference is not None and digest != reference[index]:
            raise CheckFailed(f"request {index}: digest {digest} != "
                              f"reference {reference[index]}")
    except CheckFailed as exc:
        tally.fail(str(exc))
    if observe:
        workload.observe(result, tally.counts)


def measure(args, workdir: Path):
    import hostspeed
    import spans
    import suites

    workload = suites.WORKLOADS[args.workload](args.seed, workdir)
    speed = hostspeed.HostSpeed()
    setup_seconds: List[float] = []
    while (len(setup_seconds) < SETUP_REPEATS
           or (sum(setup_seconds) < SETUP_SECONDS
               and len(setup_seconds) < MAX_SETUP_REPEATS)):
        start = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - start)
        speed.calibrate_if_due()
    setup_scale, _ = speed.end_phase()

    reference = None
    if not args.write_reference:
        reference = load_reference(args.reference, workload)
    tally = Tally(len(workload.requests))
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    number = 0
    while True:
        traced = tracer is not None and number % 2 == 1
        run_pass(workload, number, tally, tracer if traced else None,
                 speed, reference)
        number += 1
        if args.write_reference:
            break
        if (time.perf_counter() - start >= args.seconds
                and (tracer is None or number >= 2)):
            break
    return (workload, tally, tracer, speed,
            statistics.median(setup_seconds) * setup_scale)


# ---------------------------------------------------------------------------
# Reference digests
# ---------------------------------------------------------------------------

def load_reference(path: Path, workload) -> Optional[List[str]]:
    """The reference digests for this workload on the reference seed;
    None on any other seed (then only the finiteness and structural
    checks apply).  A reference that does not fit the workload raises,
    so the output check is never switched off silently."""
    document = json.loads(path.read_text())
    if document["seed"] != workload.seed:
        return None
    entry = document["workloads"].get(workload.name)
    if entry is None:
        raise ValueError(f"{path}: no reference for {workload.name}")
    if entry["duration_scale"] != workload.duration_scale:
        raise ValueError(f"{path}: {workload.name} reference is at duration "
                         f"scale {entry['duration_scale']}, the workload at "
                         f"{workload.duration_scale}")
    if len(entry["digests"]) != len(workload.requests):
        raise ValueError(f"{path}: {workload.name} has "
                         f"{len(entry['digests'])} digests for "
                         f"{len(workload.requests)} requests")
    return entry["digests"]


def write_reference(path: Path, workload, tally: Tally) -> None:
    if tally.failed or None in tally.digests:
        raise SystemExit("perfbench: not writing a reference from a run "
                         "with failures")
    document = (json.loads(path.read_text()) if path.exists()
                else {"seed": workload.seed, "workloads": {}})
    if document["seed"] != workload.seed:
        raise SystemExit(f"perfbench: {path} holds seed {document['seed']}")
    document["workloads"][workload.name] = {
        "duration_scale": workload.duration_scale,
        "digests": tally.digests,
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(tally: Tally, setup_s: float,
               scale: float) -> Dict[str, Tuple[float, str]]:
    """Latency percentiles are taken over the individual calls of each
    untraced pass, and the median over passes is reported, so a slow
    call weighs the same however many passes the run holds.  Throughput
    is items over the requests' summed mean wall times, i.e. items per
    second of measured time with every request weighted once.  Request
    times are multiplied by the passes' host-speed *scale*; *setup_s*
    is already scaled by the set-ups' own."""
    measured = [(n, seconds / calls) for n, seconds, calls
                in zip(tally.items, tally.seconds, tally.calls) if calls]
    if measured:
        p50 = statistics.median(tally.pass_p50) * scale
        p99 = statistics.median(tally.pass_p99) * scale
        rate = (sum(n for n, _ in measured)
                / (sum(t for _, t in measured) * scale))
    else:  # every request raised: nothing was measured
        p50 = p99 = rate = 0.0
    attempted = max(tally.attempted, 1)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (rate, "1/s"),
        "request_ms_p50": (p50 * 1e3, "ms"),
        "request_ms_p99": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": ((attempted - tally.failed) / attempted, "frac"),
    }


def per_layer(tracer, tally: Tally) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced passes; counts and self times
    are per pass."""
    passes = len(tally.pass_seconds[True])
    span = tracer.span
    layer = tracer.layer_self_time

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def mean_ms(*names):
        total = sum(span(n).total for n in names)
        return ratio(total * 1e3, sum(span(n).calls for n in names))

    scheduled = span("sim.schedule_at").calls + span("sim.schedule_batch").items
    fired = span("sim.step").hits
    demands = span("workloads.build_demand").calls
    get, get_many = span("core.resultcache.get"), span("core.resultcache.get_many")
    lookups = get.items + get_many.items
    plans = span("engine.plancache.get")
    arrivals = tally.counts.get("arrivals", 0)
    answers = tally.counts.get("cache", 0) + tally.counts.get("surrogate", 0)
    untraced = statistics.median(tally.pass_seconds[False])
    traced = statistics.median(tally.pass_seconds[True])
    return {
        "sim.events_scheduled": (scheduled / passes, "count"),
        "sim.events_fired": (fired / passes, "count"),
        "sim.events_cancelled_frac": (
            ratio(span("sim.cancel").hits, scheduled), "frac"),
        "sim.self_s": (layer("sim") / passes, "s"),
        "sim.us_per_event": (ratio(layer("sim") * 1e6, fired), "us"),
        "sim.waterfill.submits": (
            span("sim.waterfill.submit").calls / passes, "count"),
        "sim.waterfill.self_s": (
            span("sim.waterfill.submit").self_time / passes, "s"),
        "workloads.transactions": (demands / passes, "count"),
        "workloads.self_s": (layer("workloads") / passes, "s"),
        "workloads.us_per_txn": (ratio(layer("workloads") * 1e6, demands),
                                 "us"),
        "engine.transactions": (
            span("engine.run_transaction").calls / passes, "count"),
        "engine.queries": (span("engine.run_query").calls / passes, "count"),
        "engine.self_s": (layer("engine") / passes, "s"),
        "engine.optimizer.calls": (
            span("engine.optimizer.optimize").calls / passes, "count"),
        "engine.optimizer.self_s": (
            span("engine.optimizer.optimize").self_time / passes, "s"),
        "engine.plancache.hit_ratio": (ratio(plans.hits, plans.items), "frac"),
        "hardware.self_s": (layer("hardware") / passes, "s"),
        "hardware.mrc.calls": (sum(
            span(f"hardware.mrc.{name}").calls
            for name in ("mpki", "mpki_array", "hit_ratio", "hit_ratio_array")
        ) / passes, "count"),
        "hardware.storage.ios": ((span("hardware.storage.read").calls
                                  + span("hardware.storage.write").calls)
                                 / passes, "count"),
        "fleet.self_s": (layer("fleet") / passes, "s"),
        "fleet.us_per_arrival": (ratio(layer("fleet") * 1e6, arrivals), "us"),
        "fleet.shed_frac": (ratio(tally.counts.get("shed", 0), arrivals),
                            "frac"),
        "core.self_s": (layer("core") / passes, "s"),
        "core.resultcache.put_ms": (mean_ms("core.resultcache.put"), "ms"),
        "core.journal.write_ms": (
            mean_ms("core.journal.record", "core.journal.note"), "ms"),
        "core.resultcache.get_ms": (
            ratio((get.total + get_many.total) * 1e3, lookups), "ms"),
        "core.resultcache.hit_ratio": (
            ratio(get.hits + get_many.hits, lookups), "frac"),
        "surrogate.features_ms": (mean_ms("surrogate.features_for_config"),
                                  "ms"),
        "surrogate.predict_ms": (mean_ms("surrogate.predict"), "ms"),
        "surrogate.answer_frac": (
            ratio(tally.counts.get("surrogate", 0), answers), "frac"),
        "trace.overhead_frac": (traced / untraced - 1.0, "frac"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, workload, tally: Tally, scale: float,
          calibrations: int) -> Dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "duration_scale": workload.duration_scale,
        "trace": args.trace,
        "requests": len(workload.requests),
        "untraced_passes": len(tally.pass_seconds[False]),
        "traced_passes": len(tally.pass_seconds[True]),
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "host_scale": scale,
        "host_calibrations": calibrations,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the package from src/: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              "this checkout's src/", file=sys.stderr)
        return 2
    import suites
    if args.workload not in suites.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(suites.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload, tally, tracer, speed, setup_s = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.write_reference:
        write_reference(args.reference, workload, tally)
    scale, calibrations = speed.end_phase()
    provenance = stamp(args, workload, tally, scale, calibrations)
    if tracer is not None:
        metrics = per_layer(tracer, tally)
        traces = WORK_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, provenance)
        provenance["chrome_trace"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end(tally, setup_s, scale)
    print("stamp " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
