"""Smoke test of the benchmark: every metric is emitted, nothing fails.

Runs ``bench/run.py --quick`` (tiny sizes, one round, no build) once per
workload and mode.  It checks the instrument, not the program's speed.
"""

from __future__ import annotations

import json
import statistics
from concurrent.futures import ThreadPoolExecutor
import subprocess
import sys
from pathlib import Path

import pytest

from calibrate import C_REF, Clock, kernel

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def quick_runs() -> dict:
    """Both modes of every workload, two runs at a time (two cores)."""
    with ThreadPoolExecutor(2) as pool:
        futures = {(workload, trace): pool.submit(run_quick, workload, trace)
                   for workload in WORKLOADS for trace in (0, 1)}
        return {key: future.result() for key, future in futures.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(quick_runs, workload):
    results = {"end_to_end": quick_runs[workload, 0],
               "per_layer": quick_runs[workload, 1]}
    for section, result in results.items():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: entry["unit"]
                 for name, entry in result["metrics"].items()}
        assert units == {entry["name"]: entry["unit"]
                         for entry in SPEC[section]}
    assert all(entry["value"] > 0
               for entry in results["end_to_end"]["metrics"].values())
    layers = {name: entry["value"]
              for name, entry in results["per_layer"]["metrics"].items()}
    assert layers["trace.coverage"] >= 0.9
    assert layers["service.failed"] == 0
    # The layers each workload is chosen to leave idle stay idle.
    if workload in ("ingest_xor", "store_rw"):
        assert layers["core.compress_calls"] == 0
    if workload in ("fleet_cameo", "store_rw"):
        assert layers["service.requests"] == 0
    if workload == "fleet_cameo":
        assert layers["storage.append_calls"] == 0
    else:
        assert layers["storage.append_calls"] > 0


def test_speed_correction_recovers_a_known_multiple():
    """Twenty kernels in one interval read as 20 x C_REF after correction."""
    def attempt() -> float:
        clock = Clock()
        for _ in range(7):
            clock.time("work", lambda: [kernel() for _ in range(20)])
        clock.close()
        return statistics.median(clock.corrected("work")) / (20 * C_REF)

    # A preempted attempt may miss; a broken correction misses every time.
    ratios = [attempt() for _ in range(3)]
    assert any(abs(value - 1.0) < 0.10 for value in ratios), ratios
