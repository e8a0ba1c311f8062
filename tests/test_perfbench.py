"""The traced benchmark still runs against the package.

``perfbench/tracing.py`` counts work by swapping wrappers in for package
functions it names (``hull.phase1_simplex``, ``safe_region_status`` in
``solver`` and ``synth``, ``synth.hull_decompose``, ``backends.pgd``).  A
rename or a changed return shape in ``src/`` breaks ``--trace 1`` without
failing any package test, so one small traced run guards them all.  The same
run cross-checks the hull's vertices against the harness's HiGHS oracle.  A
short untraced run of each timed workload covers the path that reports the
end-to-end metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_runs_and_replays_bitwise():
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--trace", "1",
         "--spec", "n=200,k=2,m=5,seed=0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["trace.replay_equal"]["value"] == 1
    assert result["metrics"]["solve.converged"]["value"] == 1
    # the anneal's membership probes go through the wrapped phase1_simplex,
    # so the tracer counts them along with the final outer-hull LP
    assert result["metrics"]["anneal.lp_calls"]["value"] >= 2
    # the harness's HiGHS oracle agrees with hull_decompose's vertices
    assert result["metrics"]["hull.vertex_mismatch"]["value"] == 0


def test_traced_benchmark_replays_a_reduced_cloud_bitwise():
    # at m = 10 the signals merge into five chunks of two, so run_oua groups
    # its cloud from the votes while the replay's build_A groups the reduced
    # float matrix: replay_equal cross-checks the two on merged chunks
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--trace", "1",
         "--spec", "n=300,k=3,m=10,seed=0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["trace.replay_equal"]["value"] == 1
    assert result["metrics"]["hull.vertex_mismatch"]["value"] == 0


@pytest.mark.parametrize("workload", ["anneal-fine", "solve-wide"])
def test_untraced_benchmark_runs_and_checks_its_labels(workload):
    # the timed path (--trace 0) behind the end-to-end metrics, on both timed
    # workloads: every label's eps must re-classify as SAFE, and the metrics
    # are the declared ones
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
