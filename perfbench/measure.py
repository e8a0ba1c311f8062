"""One instance of a workload: generate, load, call, check; timed or traced."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from onionlabel import (
    AnnealingError,
    SynthSpec,
    build_A,
    expand_pws,
    hull_decompose,
    load_pws_matrix,
    majority_vote,
    reduce_signals,
    run_ablation,
    run_oua,
)
from onionlabel.synth import generate_votes

from checks import check_outputs, highs_vertex_indices
from tracing import instance_metrics, layer_metrics, replay_oua
from workloads import Workload

HERE = Path(__file__).resolve().parent
TRACED_ROOTS = {"ablation": "synth.run_ablation", "mv": "metrics.majority_vote"}


class Instance:
    """One planted instance, written to a vote CSV until it is loaded."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed = wl, seed
        spec = SynthSpec(n=wl.n, k=wl.k, m=wl.m, signal_accuracy=wl.accuracy,
                         abstain_rate=wl.abstain, seed=seed)
        self.votes, self.truth = generate_votes(spec)
        self.path = workdir / f"{wl.name}-{seed}.csv"
        # The loader's alphabet: {+1, -1, 0} for k = 2, {0..k} otherwise.
        tokens = self.votes if wl.k > 2 else np.select(
            [self.votes == 1, self.votes == 2], [1, -1], 0)
        np.savetxt(self.path, tokens, fmt="%d", delimiter=",")

    def probe_setup(self, src: Path) -> float:
        """Seconds to import the package and load the CSV in a fresh interpreter."""
        out = subprocess.run(
            [sys.executable, str(HERE / "load_once.py"), str(self.path),
             str(self.wl.n), str(self.wl.k)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True, timeout=120,
        )
        return json.loads(out.stdout.splitlines()[-1])["setup_s"]

    def load(self):
        """``load_pws_matrix`` on the CSV, which is removed afterwards."""
        try:
            return load_pws_matrix(str(self.path), self.wl.n, self.wl.k)
        finally:
            self.path.unlink()

    def load_problems(self, w) -> list[str]:
        if np.array_equal(w.values, expand_pws(self.votes, self.wl.k).values):
            return []
        return [f"instance {self.seed}: the CSV does not load back to its votes"]


def method_calls(w, cfg) -> dict:
    return {
        "oua": lambda: run_oua(w, cfg),
        "ablation": lambda: run_ablation(w, cfg),
        "mv": lambda: majority_vote(w, seed=cfg.seed),
    }


def call_or_error(fn):
    try:
        return fn()
    except AnnealingError as exc:
        return exc


def timed_instance(inst: Instance, cfg) -> dict:
    """The workload's calls on one instance, untraced, then the output checks."""
    w = inst.load()
    calls = method_calls(w, cfg)
    outs, secs = {}, {}
    for call in inst.wl.calls:
        t0 = time.perf_counter()
        outs[call] = call_or_error(calls[call])
        secs[call] = time.perf_counter() - t0
    w_red = reduce_signals(w)
    cloud = build_A(w_red)
    res = check_outputs(outs, inst.truth, w_red, cloud, hull_decompose(cloud))
    res["problems"] = inst.load_problems(w) + res["problems"]
    res["label_s"] = secs["oua"]
    res["suite_s"] = sum(secs.values())
    return res


def traced_instance(inst: Instance, cfg, tracer) -> dict:
    """Untraced run_oua, then its traced replay and the other calls under spans.

    The per-layer numbers come from the replay; ``trace.overhead_s`` is the
    replay's wall time minus the untraced call's.
    """
    first_span = len(tracer.spans)
    with tracer.root(f"{inst.seed}:load", "signals.load_pws_matrix"):
        w = inst.load()
    t0 = time.perf_counter()
    ref = call_or_error(lambda: run_oua(w, cfg))
    untraced = time.perf_counter() - t0
    if isinstance(ref, AnnealingError):
        return {"attempted": 1, "failed": 1,
                "problems": [f"oua: raised {type(ref).__name__}: {ref}"]}
    calls = method_calls(w, cfg)
    outs = {"oua": ref}
    with tracer.instrumented():
        label, w_red, cloud, decomp, tv = replay_oua(tracer, f"{inst.seed}:oua", w, cfg)
        for call in inst.wl.calls:
            if call != "oua":
                with tracer.root(f"{inst.seed}:{call}", TRACED_ROOTS[call]):
                    outs[call] = call_or_error(calls[call])
    res = check_outputs(outs, inst.truth, w_red, cloud, decomp)
    res["problems"] = inst.load_problems(w) + res["problems"]
    equal = label.soft.tobytes() == ref.soft.tobytes()
    if not equal:
        res["problems"].append(f"instance {inst.seed}: traced replay differs from run_oua")
    layers = layer_metrics(tracer.spans[first_span:], f"{inst.seed}:oua")
    layers.update(instance_metrics(decomp, cloud, label, tv, highs_vertex_indices(cloud)))
    layers["solve.rel_residual"] = res["rel_residual"]
    layers["metrics.mv_accuracy"] = res["mv_accuracy"]
    layers["trace.untraced_label_s"] = untraced
    layers["trace.overhead_s"] = layers["trace.label_s"] - untraced
    layers["trace.replay_equal"] = float(equal)
    res["layers"] = layers
    return res
