"""Synthetic instances, an independent hull oracle, ablation and sweeps."""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass

import numpy as np

from .hull import HULL_TOL, ColumnCloud, PivotBudgetError, SafeRegionStatus, safe_region_status
from .hull import hull_decompose  # noqa: F401  (perfbench/tracing.py patches synth.hull_decompose)
from .metrics import accuracy, majority_vote, weighted_majority_vote
from .signals import LabelVector, WeakSignalMatrix, _freeze, expand_pws
from .solver import (
    AnnealingError,
    SolverConfig,
    SyntheticLabel,
    _is_real,
    _require_int,
    _solve,
    _target_at_bound,
    prepare,
    run_oua,
)

__all__ = [
    "SynthSpec",
    "AblationEntryError",
    "generate_instance",
    "brute_force_vertex_oracle",
    "run_ablation",
    "sweep",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]

log = logging.getLogger("onionlabel.synth")

SWEEP_COLUMNS = (
    "instance_id",
    "method",
    "metric",
    "value",
    "epsilon_used",
    "residual",
    "wall_ms",
)


class AblationEntryError(AnnealingError):
    """b/n cannot be pushed inside the inner hull."""


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a planted-truth instance."""

    n: int
    k: int
    m: int
    signal_accuracy: float
    abstain_rate: float = 0.0
    class_balance: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("k", 2), ("m", 1), ("seed", 0)):
            _require_int(name, getattr(self, name), least)
        # a bool or a string is no rate: True would plant accuracy 1
        if not (_is_real(self.signal_accuracy) and 1.0 / self.k < self.signal_accuracy <= 1.0):
            raise ValueError(
                f"signal_accuracy must lie in (1/k, 1], got {self.signal_accuracy}"
            )
        if not (_is_real(self.abstain_rate) and 0.0 <= self.abstain_rate < 1.0):
            raise ValueError(f"abstain_rate must lie in [0, 1), got {self.abstain_rate}")
        if self.class_balance is not None:
            try:
                bal = tuple(self.class_balance)
            except TypeError:  # a lone number
                raise ValueError(f"class_balance must be a sequence of k = {self.k} weights, "
                                 f"got {self.class_balance!r}") from None
            if len(bal) != self.k:
                raise ValueError(f"class_balance must have length k = {self.k}")
            if not (all(map(_is_real, bal)) and min(bal) >= 0
                    and abs(sum(bal) - 1.0) <= 1e-9):  # also NaN
                raise ValueError("class_balance must be nonnegative and sum to 1")
            object.__setattr__(self, "class_balance", tuple(float(p) for p in bal))

    @property
    def balance(self) -> np.ndarray:
        if self.class_balance is None:
            return np.full(self.k, 1.0 / self.k)
        return np.asarray(self.class_balance)


def generate_votes(spec: SynthSpec) -> tuple[np.ndarray, LabelVector]:
    """Planted labels plus an (m, n) vote matrix over {0 (abstain), 1..k}.

    Each signal abstains with probability ``abstain_rate``; otherwise it votes
    the true class with probability ``signal_accuracy`` and a uniformly chosen
    wrong class with the remainder.  Fully deterministic under ``seed``.
    """
    rng = np.random.default_rng(spec.seed)
    y = rng.choice(np.arange(1, spec.k + 1), size=spec.n, p=spec.balance)
    ab = rng.random((spec.m, spec.n)) < spec.abstain_rate
    correct = rng.random((spec.m, spec.n)) < spec.signal_accuracy
    offset = rng.integers(1, spec.k, size=(spec.m, spec.n))  # 1..k-1
    wrong = (y[None, :] - 1 + offset) % spec.k + 1
    votes = np.where(correct, y[None, :], wrong)
    votes[ab] = 0
    return votes.astype(np.int64), LabelVector(hard=_freeze(y, owned=True), k=spec.k)


def generate_instance(spec: SynthSpec) -> tuple[WeakSignalMatrix, LabelVector]:
    """Expand the planted votes into a weak-signal matrix."""
    votes, y = generate_votes(spec)
    return expand_pws(votes, spec.k), y


def brute_force_vertex_oracle(cloud: ColumnCloud) -> np.ndarray:
    """Hull vertices found by an independent LP route (scipy HiGHS).

    For each distinct column value, solve the feasibility program "is this a
    convex combination of the other distinct values?"; the non-representable
    ones are the vertices.  Duplicate groups report their lowest index.
    Guarded to small clouds (n*k <= 60); intended as the cross-check for
    ``extreme_points``, which uses a self-contained simplex instead.
    """
    from scipy.optimize import linprog  # only here: it dominates the package import time

    if cloud.n_points > 60:
        raise ValueError("oracle is limited to clouds with at most 60 columns")
    uniq_rows, first_idx = np.unique(cloud.matrix.T, axis=0, return_index=True)
    distinct = uniq_rows.T
    d = distinct.shape[1]
    if d == 1:
        return np.sort(first_idx[:1])
    verts = []
    opts = {
        "primal_feasibility_tolerance": HULL_TOL,
        "dual_feasibility_tolerance": HULL_TOL,
    }
    keep = np.ones(d, dtype=bool)
    for t in range(d):
        keep[t] = False
        others = distinct[:, keep]
        keep[t] = True
        a_eq = np.vstack([others, np.ones((1, others.shape[1]))])
        b_eq = np.append(distinct[:, t], 1.0)
        res = linprog(
            c=np.zeros(others.shape[1]),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0.0, None),
            method="highs",
            options=opts,
        )
        feasible = bool(res.success)
        if feasible:
            err = float(np.max(np.abs(others @ res.x - distinct[:, t])))
            feasible = err <= 1e-7
        if not feasible:
            verts.append(first_idx[t])
    return np.sort(np.asarray(verts, dtype=np.int64))


def run_ablation(w: WeakSignalMatrix, cfg: SolverConfig | None = None) -> SyntheticLabel:
    """Deliberately solve with b/n inside the inner hull.

    Mirrors the safe pipeline, but where annealing lowers eps until b/n
    leaves the inner hull, the ablation keeps eps at its upper bound, the end
    of that path nearest the inner hull.  eps may not pass the bound, so when
    b/n is not inside the inner hull there AblationEntryError is raised.  The
    result is flagged ``mode="ablation"`` and is never SAFE.
    """
    cfg = cfg or SolverConfig()
    cloud, decomp = prepare(w, cfg)
    tv = _target_at_bound(w, cloud)
    if safe_region_status(tv, w.n, decomp, cloud) is not SafeRegionStatus.INSIDE_H2:
        raise AblationEntryError(
            "b/n cannot enter the inner hull: eps is already at its upper bound"
        )
    log.debug("ablation: INSIDE_H2 at eps=%.6f", tv.epsilon)
    return _solve(tv.b, w.n, cloud.groups, cloud.counts, cfg, epsilon_used=tv.epsilon,
                  mode="ablation")


def _run_method(method: str, w: WeakSignalMatrix, truth: LabelVector, cfg: SolverConfig):
    """Returns (accuracy value, epsilon_used, residual)."""
    if method == "oua":
        lbl = run_oua(w, cfg)
    elif method == "ablation":
        lbl = run_ablation(w, cfg)
    elif method == "mv":
        pred = majority_vote(w, seed=cfg.seed)
        return accuracy(pred, truth).value, None, None
    elif method == "wmv":
        pred = weighted_majority_vote(w, seed=cfg.seed)
        return accuracy(pred, truth).value, None, None
    else:
        raise ValueError(f"unknown method {method!r}")
    pred = LabelVector(hard=lbl.hard, k=lbl.k)
    return accuracy(pred, truth).value, lbl.epsilon_used, lbl.residual


def sweep(specs: list[SynthSpec], methods: list[str],
          cfg: SolverConfig | None = None) -> list[dict]:
    """Accuracy of each method on each planted instance, one row per cell.

    A failing cell (an annealing error or an LP out of pivots) keeps its row
    with empty value fields and logs a WARNING naming the error; the sweep
    carries on.
    """
    cfg = cfg or SolverConfig()
    rows = []
    for i, spec in enumerate(specs):
        w, truth = generate_instance(spec)
        iid = f"i{i:03d}-n{spec.n}-k{spec.k}-m{spec.m}-s{spec.seed}"
        for method in methods:
            t0 = time.perf_counter()
            try:
                value, eps, resid = _run_method(method, w, truth, cfg)
            except (AnnealingError, PivotBudgetError) as exc:
                log.warning("sweep cell (%s, %s) failed: %s: %s", iid, method,
                            type(exc).__name__, exc)
                value, eps, resid = None, None, None
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                {
                    "instance_id": iid,
                    "method": method,
                    "metric": "accuracy",
                    "value": value,
                    "epsilon_used": eps,
                    "residual": resid,
                    "wall_ms": wall_ms,
                }
            )
    return rows


def write_sweep_csv(rows: list[dict], path: str) -> None:
    """Write sweep rows with the fixed column set; empty cells for failures."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(SWEEP_COLUMNS))
        writer.writeheader()
        for row in rows:
            out = {}
            for col in SWEEP_COLUMNS:
                v = row.get(col)
                if v is None:
                    out[col] = ""
                elif isinstance(v, float):
                    out[col] = f"{v:.10g}"
                else:
                    out[col] = v
            writer.writerow(out)
