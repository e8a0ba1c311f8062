"""The traced benchmark still runs against the package.

``perfbench/tracing.py`` counts work by swapping wrappers in for package
functions it names (``hull.phase1_simplex``, ``safe_region_status`` in
``solver`` and ``synth``, ``synth.hull_decompose``, ``backends.pgd``).  A
rename or a changed return shape in ``src/`` breaks ``--trace 1`` without
failing any package test, so one small traced run guards them all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

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
