"""Spans around onionlabel's public calls, and the per-layer split they give.

A ``Tracer`` keeps spans in memory: id, parent id, run id, name, start, end
and call attributes.  ``instrumented`` swaps a counting wrapper in for each
public function as the calling module sees it (``phase1_simplex`` in
``hull``; ``safe_region_status`` in ``solver`` and ``synth``;
``hull_decompose`` in ``synth``; ``pgd`` in ``backends``) and restores the
originals on exit.  ``solver``'s ``hull_decompose`` is looked up only by
``run_oua``, which the replay does not call; the replay puts its own span
around that stage.
``replay_oua`` repeats ``run_oua``'s public stages in its order, one span per
stage, so the split is tied to what ``run_oua`` does.  Span names are
``<module>.<function>``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import onionlabel
from onionlabel import backends, hull, solver, synth


class Tracer:
    """In-memory spans; written out by the caller when the pass ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def root(self, run: str, name: str):
        """A top-level span; every span opened inside it shares its run id."""
        self.run = run
        try:
            with self.span(name) as rec:
                yield rec
        finally:
            self.run = None

    def _wrap(self, fn, name, attrs_of):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    rec["attrs"].update(attrs_of(out))
            return out
        return traced

    @contextlib.contextmanager
    def instrumented(self):
        patches = [
            (hull, "phase1_simplex", "backends.phase1_simplex",
             lambda out: {"pivots": int(out[1]), "status": int(out[2])}),
            (solver, "safe_region_status", "hull.safe_region_status", None),
            (synth, "safe_region_status", "hull.safe_region_status", None),
            (synth, "hull_decompose", "hull.hull_decompose", None),
            (backends, "pgd", "backends.pgd", lambda out: {"iters": int(out[1])}),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
        try:
            for (mod, attr, name, attrs_of), (_, _, fn) in zip(patches, saved):
                setattr(mod, attr, self._wrap(fn, name, attrs_of))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def replay_oua(tracer: Tracer, run: str, w, cfg):
    """``run_oua(w, cfg)`` stage by stage; returns the label and the stage outputs."""
    with tracer.root(run, "solver.run_oua"):
        with tracer.span("signals.reduce_signals"):
            w_red = onionlabel.reduce_signals(w)
        with tracer.span("hull.build_A"):
            cloud = onionlabel.build_A(w_red)
        with tracer.span("hull.hull_decompose"):
            decomp = onionlabel.hull_decompose(cloud)
        with tracer.span("solver.anneal_b"):
            tv = onionlabel.anneal_b(w_red, cloud, decomp, cfg)
        with tracer.span("solver.augment_system"):
            a_aug, b_aug = onionlabel.augment_system(cloud, tv, w.n)
        with tracer.span("solver.solve_labels"):
            label = onionlabel.solve_labels(a_aug, b_aug, cfg, epsilon_used=tv.epsilon)
    return label, w_red, cloud, decomp, tv


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], replay_run: str) -> dict:
    """Per-layer times and counts of one instance, from its spans.

    LPs are attributed to the hull or the anneal by the stage span that
    encloses them inside the replay of ``run_oua``.
    """
    by_id = {s["id"]: s for s in spans}

    def stage_of(s):
        while s["parent"] is not None:
            parent = by_id[s["parent"]]
            if parent["parent"] is None:
                return s["name"]
            s = parent
        return None

    replay = [s for s in spans if s["run"] == replay_run]
    stage_s = {s["name"]: _dur(s) for s in replay if s["parent"] is not None
               and by_id[s["parent"]]["parent"] is None}
    lps = defaultdict(list)
    queries = pgd = 0
    pgd_s = 0.0
    for s in replay:
        if s["name"] == "backends.phase1_simplex":
            lps[stage_of(s)].append(s)
        elif s["name"] == "hull.safe_region_status" and stage_of(s) == "solver.anneal_b":
            queries += 1
        elif s["name"] == "backends.pgd":
            pgd += s["attrs"]["iters"]
            pgd_s += _dur(s)
    roots = {s["name"]: _dur(s) for s in spans if s["parent"] is None}
    label_s = roots["solver.run_oua"]
    hull_lps, anneal_lps = lps["hull.hull_decompose"], lps["solver.anneal_b"]
    return {
        "signals.load_s": roots["signals.load_pws_matrix"],
        "signals.reduce_s": stage_s["signals.reduce_signals"],
        "hull.decompose_s": stage_s["hull.hull_decompose"],
        "hull.share": stage_s["hull.hull_decompose"] / label_s,
        "hull.calls": sum(s["name"] == "hull.hull_decompose" for s in spans),
        "hull.lp_calls": len(hull_lps),
        "hull.pivots": sum(s["attrs"]["pivots"] for s in hull_lps),
        "hull.lp_budget_hit": sum(s["attrs"]["status"] == 1 for s in hull_lps),
        "anneal.s": stage_s["solver.anneal_b"],
        "anneal.share": stage_s["solver.anneal_b"] / label_s,
        "anneal.queries": queries,
        "anneal.steps": queries - 1,
        "anneal.lp_calls": len(anneal_lps),
        "anneal.pivots": sum(s["attrs"]["pivots"] for s in anneal_lps),
        "solve.s": stage_s["solver.solve_labels"],
        "solve.share": stage_s["solver.solve_labels"] / label_s,
        "solve.overhead_s": stage_s["solver.solve_labels"] - pgd_s,
        "solve.us_per_iter": pgd_s / max(pgd, 1) * 1e6,
        "backends.phase1_calls": len(hull_lps) + len(anneal_lps),
        "backends.phase1_s": sum(_dur(s) for s in hull_lps + anneal_lps),
        "metrics.mv_s": roots.get("metrics.majority_vote", 0.0),
        "synth.ablation_s": roots.get("synth.run_ablation", 0.0),
        "trace.label_s": label_s,
    }


def instance_metrics(decomp, cloud, label, tv, oracle_h1) -> dict:
    """Counts and results of one instance that come from the stage outputs."""
    distinct = np.unique(cloud.matrix.T, axis=0).shape[0]
    mismatch = np.setxor1d(decomp.h1, oracle_h1).size
    return {
        "hull.distinct_cols": distinct,
        "hull.h1": int(decomp.h1.size),
        "hull.inner": int(decomp.interior_columns.shape[1]),
        "hull.vertex_mismatch": int(mismatch),
        "hull.oracle_h1": int(oracle_h1.size),
        "anneal.epsilon": float(tv.epsilon),
        "solve.iters": int(label.iterations),
        "solve.converged": float(label.converged),
    }
