"""Self-tests of the benchmark (not part of the library's test suite):

    python3 -m pytest bench -q

Each case starts fresh worker processes, as the benchmark does, on the
first ops of a schedule.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("classgroup", "scan", "certify", "ambig")
MAX_OPS = 16  # more than the 9 ambig anchors, so the seed shows


def worker(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--rounds", "1",
           "--max-ops", str(MAX_OPS), "--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def exact_counts(r: dict) -> dict:
    return {
        "calls": {k: v["calls"] for k, v in r["layers"].items()},
        "snf_shape": r["snf_shape"],
        "rejected": r["rejected"],
        "candidates": r["candidates"],
        "certificates": r["certificates"],
        "attempted": r["attempted"],
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts_and_digests(workload):
    a = worker(workload, 7, "trace")
    b = worker(workload, 7, "trace")
    assert a["failures"] == [] and b["failures"] == []
    assert a["digests"] == b["digests"]
    assert exact_counts(a) == exact_counts(b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    plain = worker(workload, 8, "run")
    traced = worker(workload, 8, "trace")
    assert plain["digests"] == traced["digests"]
    assert None not in plain["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_and_still_passes(workload):
    a = worker(workload, 7, "run")
    b = worker(workload, 9, "run")
    assert a["failures"] == [] and b["failures"] == []
    assert a["digests"] != b["digests"]


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "ambig",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ambig", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_slowdowns_follow_the_nearby_speed_samples():
    sys.path.insert(0, str(BENCH))
    import run

    ref = run.REFERENCE_S
    at_s = [0.0, 1.0, 10.0, 11.0]
    ref_s = [ref, ref, 2 * ref, 2 * ref]
    assert run.slowdowns([0.5, 10.5, 30.0], at_s, ref_s) == [1.0, 2.0, 2.0]
