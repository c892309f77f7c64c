"""Tests of the benchmark itself (about two minutes on two cores).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = ("estimators.mve.calls_per_replicate",
                "estimators.s_bisquare.calls_per_replicate",
                "numerics.m_scale.calls_per_replicate",
                "depth.tukey_depth.calls")


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = dict(ln.split()[1:3] for ln in lines
                   if ln.startswith("records_sha256 "))
    return json.loads(lines[-1]), digests


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [m[:4] for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.fixture(scope="module")
def traced_p2():
    return [bench("grid_p2_n20", 7, trace=1) for _ in range(2)]


def test_exact_counts_repeat(traced_p2):
    (first, _), (second, _) = traced_p2
    for out in (first, second):
        assert out["correct"], out
        assert set(out["metrics"]) == {m[0] for m in PER_LAYER}
    for name in EXACT_COUNTS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    assert first["metrics"]["estimators.mve.calls_per_replicate"]["value"] == 4
    assert first["metrics"][
        "estimators.s_bisquare.calls_per_replicate"]["value"] == 2


def test_threads2_records_match_serial(traced_p2):
    out, digests = traced_p2[0]
    assert out["correct"], out
    assert set(digests) == {"pass0", "pass0_traced", "pass0_threads2",
                            "pass0_serial_cold"}
    assert len(set(digests.values())) == 1
    assert 0 < out["metrics"]["simlab.parallel_efficiency"]["value"] < 1.5


def test_bare_directory_fails(tmp_path):
    """Without the program's sources the benchmark exits non-zero, silently."""
    bare = tmp_path / "bare"
    bare.mkdir()
    subprocess.run(["cp", "-r", HERE, str(bare / "perfbench")], check=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_p2_n20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
