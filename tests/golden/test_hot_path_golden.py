"""Golden digests for the transaction, arrival and core-pool hot paths.

Every simulated transaction and every open-loop arrival draws a
transaction type (and, with tenants, a tenant) from a weighted mix, and
every analytical query runs on the water-filling core pool
(:class:`~repro.sim.waterfill.WaterfillServer`).  Both paths are
performance-tuned, so this module pins sha256 digests of short
end-to-end runs that go through every weighted-draw call site and every
core-pool re-plan trigger:

* four closed-loop points (OLTP client loop): an ASDB core point, an
  ASDB point under a 50 MB/s cgroup write cap (WAL flushes through a
  capped token bucket, checkpoint back-pressure), a TPC-E LLC point and
  an HTAP point — digest of the pickled
  :class:`~repro.core.measurement.Measurement` (protocol 4);
* two TPC-H points on the core pool, same digest: a MAXDOP 4 point on
  32 cores, where the DOP > 1 rate caps bind in ``waterfill()``, and a
  point with a mid-run ``CoreOffline`` fault, which re-plans through
  ``set_capacity``;
* one fleet run with a rate-limited tenant, autoscaling and a diurnal
  trace (fleet arrivals, thinning and placement) — ``FleetReport.digest``;
* one multi-tenant :class:`~repro.workloads.arrivals.OpenLoopDriver` run
  on a diurnal trace — digest of the pickled ``OpenLoopResult``;
* one seeded chaos failover run (process joins, wait-event fan-out and
  interrupts in the replica group) — ``ChaosReport.digest``.

Any change to the draw sequence, the placement order or the simulated
outcome moves a digest.  Regenerate the constants only for a change that
is *meant* to alter simulated results::

    PYTHONPATH=src python tests/golden/test_hot_path_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.engine.engine import SqlEngine
from repro.engine.resource_governor import ResourceGovernor
from repro.faults.chaos import ChaosConfig, run_chaos
from repro.faults.spec import CoreOffline
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import FleetSpec, default_tenants, run_fleet
from repro.hardware.machine import Machine
from repro.workloads.arrivals import ArrivalSpec, OpenLoopDriver, TenantTraffic
from repro.workloads.asdb import AsdbWorkload

POINTS = {
    "asdb-cores": ExperimentConfig(
        workload="asdb", scale_factor=2000,
        allocation=ResourceAllocation(logical_cores=8), duration=0.6),
    "asdb-writecap": ExperimentConfig(
        workload="asdb", scale_factor=2000,
        allocation=ResourceAllocation(logical_cores=8, write_bw_limit=50e6),
        duration=0.6),
    "tpce-llc": ExperimentConfig(
        workload="tpce", scale_factor=5000,
        allocation=ResourceAllocation(logical_cores=32, llc_mb=12),
        duration=0.6),
    "htap": ExperimentConfig(
        workload="htap", scale_factor=5000,
        allocation=ResourceAllocation(logical_cores=32, llc_mb=40),
        duration=0.6),
    "tpch-maxdop": ExperimentConfig(
        workload="tpch", scale_factor=10,
        allocation=ResourceAllocation(logical_cores=32, max_dop=4),
        duration=60.0),
    "tpch-offline": ExperimentConfig(
        workload="tpch", scale_factor=10,
        allocation=ResourceAllocation(logical_cores=32), duration=60.0,
        faults=(CoreOffline(at=20.0, remaining_logical=8, duration=20.0),)),
}

GOLDEN_POINTS = {
    "asdb-cores":
        "ef376dda092a4bc933cbf8ebe6d5e6a63483c90f4fd18a9709069f621a1bde82",
    "asdb-writecap":
        "a858741252f7b5b67705bcdb4e4549735c7739f93b7b8022d2b259b6f169b08c",
    "tpce-llc":
        "690dc7efe3025bba07299ce78bfa8bfe112253c37b818dff44d705ca00456f05",
    "htap":
        "f88f26222f692180b6b03dc8a98d1bbc073e06f3ffdb369f8ab10ce51e7865d0",
    "tpch-maxdop":
        "3add6536f4e5c99ada057f9b72e2de2555a38edb16ab27da3b9c4909b21c9502",
    "tpch-offline":
        "55a02f4f59344698b600ab40c386546cfae9da728907d8e935b2b04738e06a91",
}

GOLDEN_FLEET = (
    "58ebcc51c986b75c19b80f465ee02d704f760c15a1c63e59b6c44017f118afc7")

GOLDEN_OPEN_LOOP = (
    "99c34a7e6ff3f00a4eb962f12fa47c3a557500f1535121b67ea78c5256ce7f0e")

GOLDEN_CHAOS = (
    "36551450fce6e23e9385597602f58ac09571e1a294dcfeb9a64c968af9cc2031")


def point_digest(name: str) -> str:
    measurement = Experiment(POINTS[name]).run()
    return hashlib.sha256(pickle.dumps(measurement, protocol=4)).hexdigest()


def fleet_digest() -> str:
    tenants = list(default_tenants(4))
    tenants[-1] = dataclasses.replace(tenants[-1], rate_limit_tps=40.0)
    spec = FleetSpec(
        shards=2,
        duration=3.0,
        seed=5,
        arrival=ArrivalSpec(offered_tps=500.0, trace="diurnal", period_s=3.0),
        tenants=tuple(tenants),
        capacity_per_shard=4,
        autoscale=AutoscalePolicy(min_shards=2, max_shards=4, cooldown_s=0.5),
    )
    return run_fleet(spec).digest()


def chaos_digest() -> str:
    return run_chaos(ChaosConfig(seed=1, scenario="failover",
                                 duration=2.0)).digest


def open_loop_digest() -> str:
    workload = AsdbWorkload(2000, clients=1)
    machine = Machine(seed=3)
    ResourceAllocation(logical_cores=4).apply_to(machine)
    engine = SqlEngine(
        machine, workload.database, workload.execution_characteristics(),
        governor=ResourceGovernor(), **workload.engine_parameters(),
    )
    spec = ArrivalSpec(
        offered_tps=3000.0, trace="diurnal", period_s=2.0, max_in_flight=40,
        tenants=(TenantTraffic(name="gold", weight=3.0, priority=0),
                 TenantTraffic(name="silver", weight=2.0),
                 TenantTraffic(name="scrap", weight=1.0, priority=2)),
    )
    driver = OpenLoopDriver.from_spec(workload, engine, spec, duration=2.0)
    result = driver.run(duration=2.0)
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


@pytest.mark.parametrize("name", sorted(POINTS))
def test_closed_loop_point_digest(name):
    assert point_digest(name) == GOLDEN_POINTS[name]


def test_fleet_report_digest():
    assert fleet_digest() == GOLDEN_FLEET


def test_open_loop_driver_digest():
    assert open_loop_digest() == GOLDEN_OPEN_LOOP


def test_chaos_failover_digest():
    assert chaos_digest() == GOLDEN_CHAOS


if __name__ == "__main__":
    for point in sorted(POINTS):
        print(f"{point!r}: {point_digest(point)!r},")
    print(f"GOLDEN_FLEET = {fleet_digest()!r}")
    print(f"GOLDEN_OPEN_LOOP = {open_loop_digest()!r}")
    print(f"GOLDEN_CHAOS = {chaos_digest()!r}")
