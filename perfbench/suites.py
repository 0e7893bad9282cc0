"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed list of *requests* — the
calls a user makes and waits on — and knows how to run and check one:

* ``oltp-sweep`` / ``olap-sweep``: a request is one grid point, run
  through :func:`~repro.core.runner.run_supervised` into the pass's fresh
  result cache and journal;
* ``fleet-diurnal``: a request is one :func:`~repro.fleet.cluster.run_fleet`
  call; its items are the fleet's arrivals;
* ``whatif-serve``: a request is one
  :meth:`~repro.surrogate.serve.WhatIfServer.answer` with simulation
  disabled.

``setup`` builds the inputs and everything the timed passes need; the
runner calls it several times and times each call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.journal import SweepJournal
from repro.core.knobs import ResourceAllocation
from repro.core.measurement import Measurement
from repro.core.resultcache import ResultCache, canonical_json
from repro.core.sweeps import (
    core_sweep,
    grant_sweep,
    llc_sweep,
    maxdop_sweep,
    read_bandwidth_sweep,
    write_bandwidth_sweep,
)
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import FleetReport, FleetSpec, default_tenants
from repro.surrogate import SurrogateModel, WhatIfServer, harvest
from repro.surrogate.serve import SOURCE_CACHE, SOURCE_SURROGATE, ServeStats
from repro.workloads.arrivals import ArrivalSpec

import repro.core.runner as runner
import repro.fleet.cluster as cluster


class CheckFailed(Exception):
    """A request returned a wrong or non-finite result."""


def short_digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()[:16]


def _finite(value: Any, where: str) -> None:
    """Raise :class:`CheckFailed` on any nan/inf reachable in *value*."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CheckFailed(f"non-finite value at {where}: {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _finite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _finite(item, f"{where}[{index}]")


def measurement_scalars(measurement: Measurement) -> Dict[str, Any]:
    """The reported fields of a Measurement: scalars and scalar maps
    (the per-second counter series and tracker are the raw samples
    behind them and are covered by the payload digest)."""
    reported = {}
    for field in dataclasses.fields(measurement):
        value = getattr(measurement, field.name)
        if isinstance(value, (int, float, dict)) and not isinstance(value, bool):
            reported[field.name] = value
    reported["wait_times"] = {
        wait.name: seconds
        for wait, seconds in measurement.wait_times.items()
    }
    return reported


class Workload:
    """Base: ``requests`` run in passes; subclasses fill the hooks."""

    name = ""
    #: Simulated-duration scale of the workload's inputs (stamped).
    duration_scale: Optional[float] = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.requests: List[Any] = []

    def setup(self) -> None:
        raise NotImplementedError

    def begin_pass(self, number: int) -> None:
        """Per-pass state (fresh caches); not timed."""

    def end_pass(self) -> None:
        """Release per-pass state; not timed."""

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def items(self, result: Any) -> int:
        return 1

    def digest(self, result: Any) -> str:
        raise NotImplementedError

    def check(self, index: int, result: Any) -> None:
        """Structural and finiteness checks; raise :class:`CheckFailed`."""

    def observe(self, result: Any, counts: Dict[str, float]) -> None:
        """Accumulate simulated outcomes the per-layer metrics need."""


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

#: Simulated seconds of the set-up warm-up run per distinct workload.
WARMUP_SECONDS = 0.05


def oltp_grid(scale: float) -> List[ExperimentConfig]:
    """ASDB SF2000 cores (Fig 2a), TPC-E SF5000 LLC (Fig 2e), ASDB
    write-bandwidth limits (§6): 23 points."""
    return (core_sweep("asdb", 2000, duration_scale=scale)
            + llc_sweep("tpce", 5000, duration_scale=scale)
            + write_bandwidth_sweep([None, 200e6, 50e6],
                                    duration_scale=scale))


def olap_grid(scale: float) -> List[ExperimentConfig]:
    """TPC-H SF100 cores, SF300 MAXDOP (Fig 6) and read-bandwidth limits
    (Fig 5), SF100 grants (Fig 8), HTAP SF5000 LLC (Fig 2k): 22 points."""
    return (core_sweep("tpch", 100, duration_scale=scale)
            + maxdop_sweep(300, duration_scale=scale)
            + read_bandwidth_sweep([None, 800e6, 200e6], duration_scale=scale)
            + grant_sweep(100, duration_scale=scale)
            + llc_sweep("htap", 5000, sizes_mb=(4, 12, 40),
                        duration_scale=scale))


class SweepWorkload(Workload):
    """A grid of closed-loop points, each a supervised single-point run;
    subclasses set ``grid`` and ``duration_scale``."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cache: Optional[ResultCache] = None
        self.journal: Optional[SweepJournal] = None
        self._pass_dir: Optional[Path] = None

    def setup(self) -> None:
        self.requests = [dataclasses.replace(config, seed=self.seed)
                         for config in self.grid(self.duration_scale)]
        # Warm up once per distinct workload shape, so lazily built
        # tables and plans are set-up cost, not the first point's.
        shapes = {}
        for config in self.requests:
            key = (config.workload, config.scale_factor,
                   canonical_json(config.workload_kwargs))
            shapes.setdefault(key, config)
        for config in shapes.values():
            Experiment(dataclasses.replace(
                config, duration=WARMUP_SECONDS)).run()

    def begin_pass(self, number: int) -> None:
        self._pass_dir = self.workdir / f"pass-{number}"
        self.cache = ResultCache(self._pass_dir / "cache")
        self.journal = SweepJournal(self._pass_dir / "journal.jsonl")

    def end_pass(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
        self.cache = self.journal = self._pass_dir = None

    def run(self, index: int) -> Measurement:
        report = runner.run_supervised([self.requests[index]], jobs=1,
                                       cache=self.cache, journal=self.journal)
        measurement = report.measurements[0]
        if measurement is None or not report.ok:
            raise CheckFailed(f"grid point {index} failed: "
                              + "; ".join(f.describe()
                                          for f in report.failures))
        return measurement

    def digest(self, result: Measurement) -> str:
        return short_digest(pickle.dumps(result, protocol=4))

    def check(self, index: int, result: Measurement) -> None:
        _finite(measurement_scalars(result), f"point{index}")


class OltpSweep(SweepWorkload):
    name = "oltp-sweep"
    duration_scale = 0.3
    grid = staticmethod(oltp_grid)


class OlapSweep(SweepWorkload):
    name = "olap-sweep"
    duration_scale = 0.2
    grid = staticmethod(olap_grid)


# ---------------------------------------------------------------------------
# Fleet
# ---------------------------------------------------------------------------

#: Fleet runs per pass, each on its own seed derived from ``--seed``.
FLEET_RUNS = 4
FLEET_SECONDS = 20.0


def fleet_spec(seed: int, duration: float = FLEET_SECONDS) -> FleetSpec:
    """4 shards cycling the three backends, autoscaled to at most 6, on a
    full diurnal cycle at 600 tps.  Four tenants (priorities 0/1/2/0),
    the last rate-limited so governance runs; the small admission bound
    makes the peak exceed capacity so shedding runs."""
    tenants = list(default_tenants(4))
    tenants[-1] = dataclasses.replace(tenants[-1], rate_limit_tps=60.0)
    return FleetSpec(
        shards=4,
        duration=duration,
        seed=seed,
        arrival=ArrivalSpec(offered_tps=600.0, trace="diurnal",
                            period_s=duration),
        tenants=tuple(tenants),
        capacity_per_shard=4,
        autoscale=AutoscalePolicy(min_shards=4, max_shards=6, cooldown_s=2.0),
    )


class FleetDiurnal(Workload):
    name = "fleet-diurnal"
    duration_scale = 1.0

    def setup(self) -> None:
        self.requests = [fleet_spec(self.seed * FLEET_RUNS + run)
                         for run in range(FLEET_RUNS)]
        cluster.run_fleet(fleet_spec(self.seed, duration=1.0))

    def run(self, index: int) -> FleetReport:
        return cluster.run_fleet(self.requests[index])

    def items(self, result: FleetReport) -> int:
        return result.arrivals

    def digest(self, result: FleetReport) -> str:
        return result.digest()[:16]

    def check(self, index: int, result: FleetReport) -> None:
        payload = result.to_payload()
        _finite({key: payload[key] for key in
                 ("offered_tps", "p50_ms", "p99_ms", "p999_ms")},
                f"fleet{index}")
        _finite(payload["tenants"], f"fleet{index}.tenants")
        if result.completed <= 0 or result.arrivals <= 0:
            raise CheckFailed(f"fleet run {index}: no completed work")

    def observe(self, result: FleetReport, counts: Dict[str, float]) -> None:
        counts["arrivals"] = counts.get("arrivals", 0) + result.arrivals
        counts["shed"] = counts.get("shed", 0) + result.shed


# ---------------------------------------------------------------------------
# What-if serving
# ---------------------------------------------------------------------------

#: ``bench_whatif``'s training grid: 36 ASDB SF2000 points.
TRAIN_CORES = (1, 2, 4, 8, 16, 32)
TRAIN_LLC_MB = (2, 8, 16, 24, 32, 40)
TRAIN_DURATION = 1.0

#: Query stream: exact cached configs and off-grid configs.
QUERIES = 400
CACHED_QUERIES = 160


def _whatif_config(seed: int, cores: int, llc_mb: int) -> ExperimentConfig:
    return ExperimentConfig(
        workload="asdb", scale_factor=2000,
        allocation=ResourceAllocation(logical_cores=cores, llc_mb=llc_mb),
        duration=TRAIN_DURATION, seed=seed,
    )


def whatif_queries(seed: int) -> List[Tuple[ExperimentConfig, str]]:
    """``(config, expected source)``: 40% training-grid configs (cache
    answers), 60% off-grid configs (surrogate answers), shuffled."""
    rng = np.random.default_rng(seed)
    grid = [(c, l) for c in TRAIN_CORES for l in TRAIN_LLC_MB]
    off_cores = [c for c in range(1, 33) if c not in TRAIN_CORES]
    off_llc = [l for l in range(2, 41, 2) if l not in TRAIN_LLC_MB]
    queries = [(grid[int(rng.integers(len(grid)))], SOURCE_CACHE)
               for _ in range(CACHED_QUERIES)]
    queries += [((off_cores[int(rng.integers(len(off_cores)))],
                  off_llc[int(rng.integers(len(off_llc)))]), SOURCE_SURROGATE)
                for _ in range(QUERIES - CACHED_QUERIES)]
    order = rng.permutation(len(queries))
    return [(_whatif_config(seed, *queries[i][0]), queries[i][1])
            for i in order]


class WhatIfServe(Workload):
    name = "whatif-serve"
    duration_scale = TRAIN_DURATION

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.server: Optional[WhatIfServer] = None
        self._setups = 0

    def setup(self) -> None:
        if self.server is not None:
            shutil.rmtree(self.server.cache.directory, ignore_errors=True)
        self._setups += 1
        cache = ResultCache(self.workdir / f"train-{self._setups}")
        grid = [_whatif_config(self.seed, c, l)
                for c in TRAIN_CORES for l in TRAIN_LLC_MB]
        report = runner.run_supervised(grid, jobs=1, cache=cache)
        if not report.ok:
            raise CheckFailed("training grid failed: " + report.summary())
        model = SurrogateModel().fit(harvest(cache))
        self.server = WhatIfServer(model=model, cache=cache,
                                   allow_simulation=False)
        self.requests = whatif_queries(self.seed)

    def begin_pass(self, number: int) -> None:
        # The server keeps every answer's latency; start each pass empty
        # so memory does not grow with the number of passes.
        self.server.stats = ServeStats()

    def run(self, index: int):
        return self.server.answer(self.requests[index][0])

    def digest(self, result) -> str:
        targets = {name: float(f"{value:.12g}")
                   for name, value in result.targets.items()}
        return short_digest(canonical_json([result.source, targets]).encode())

    def check(self, index: int, result) -> None:
        expected = self.requests[index][1]
        if result.source != expected:
            raise CheckFailed(f"query {index}: answered from "
                              f"{result.source}, expected {expected}")
        _finite(dict(result.targets), f"answer{index}")

    def observe(self, result, counts: Dict[str, float]) -> None:
        counts[result.source] = counts.get(result.source, 0) + 1


WORKLOADS = {cls.name: cls for cls in
             (OltpSweep, OlapSweep, FleetDiurnal, WhatIfServe)}
