"""Smoke test of the benchmark at the shortest run length.

Run from the repository root (takes a few minutes)::

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` untraced and traced with
``--seconds 0`` (one pass; two when traced) on the reference seed and
checks that the last line is the result object, that every metric
``BENCHMARK.json`` names for that mode is printed with its unit, and
that the output check passes.  It then runs one workload against a copy
of the reference whose digests are all corrupted, which must fail every
request (``success_rate`` 0, an error rate of 1), and runs the benchmark
from a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
which must exit non-zero without printing a result.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_work" / "smoke"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 600


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"bad counts: {result}")
    return result


def check_metrics(result, expected):
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics[name]
        if entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{name}: {entry} (expected unit {unit})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in (("0", "end_to_end"), ("1", "per_layer"))
    }
    failures = []

    def case(label, fn):
        try:
            fn()
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failures.append(label)
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")

    def normal(workload, trace):
        result = result_of(run(["--workload", workload, "--seed", "0",
                                "--seconds", "0", "--trace", trace]))
        check_metrics(result, expected[trace])
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"output check failed: {result}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            case(f"{workload} trace={trace}",
                 lambda w=workload, t=trace: normal(w, t))

    def corrupted():
        SCRATCH.mkdir(parents=True, exist_ok=True)
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        entry = reference["workloads"]["fleet-diurnal"]
        entry["digests"] = ["0" * len(d) for d in entry["digests"]]
        path = SCRATCH / "corrupted-reference.json"
        path.write_text(json.dumps(reference))
        result = result_of(run(["--workload", "fleet-diurnal", "--seed", "0",
                                "--seconds", "0", "--trace", "0",
                                "--reference", str(path)]))
        rate = result["metrics"]["success_rate"]["value"]
        if result["correct"] or result["failed"] != result["attempted"] \
                or rate != 0.0:
            raise AssertionError(f"corrupted reference not caught: {result}")

    def bare():
        directory = SCRATCH / "bare"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", directory)
        shutil.copytree(BENCH_DIR, directory / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "fleet-diurnal", "--seed", "0",
                    "--seconds", "1", "--trace", "0"], cwd=directory)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"bare directory ran: {proc.stdout[-500:]}")

    case("corrupted reference drives the error rate to 1", corrupted)
    case("no package source: non-zero exit, no result", bare)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke: " + ("FAILED " + ", ".join(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
