"""Output checks and an independent vertex oracle; both run outside the timers."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from onionlabel import (
    AnnealingError,
    LabelVector,
    SafeRegionStatus,
    SyntheticLabel,
    accuracy,
    init_b,
    safe_region_status,
)

# The target each labelling mode must re-classify to under the program's own
# decomposition: run_oua anneals to SAFE, run_ablation pushes inside H2.
EXPECTED_STATUS = {"oua": SafeRegionStatus.SAFE, "ablation": SafeRegionStatus.INSIDE_H2}


def label_problems(label: SyntheticLabel, call: str, w_red, cloud, decomp) -> list[str]:
    """Every check one solver label fails, as readable strings."""
    n, k, soft = label.n, label.k, label.soft
    if soft.shape != (n * k,):
        return [f"{call}: soft labels have shape {soft.shape}, expected ({n * k},)"]
    problems = []
    if soft.min() < 0.0 or soft.max() > 1.0:
        problems.append(f"{call}: soft labels leave [0, 1]")
    if abs(float(soft.sum()) - n) > n * 1e-6:
        problems.append(f"{call}: soft labels sum to {float(soft.sum())!r}, expected {n}")
    if not np.array_equal(label.hard, soft.reshape(k, n).argmax(axis=0) + 1):
        problems.append(f"{call}: hard labels are not the argmax decode of the soft labels")
    if not label.residual <= label.initial_residual:
        problems.append(f"{call}: residual {label.residual!r} exceeds the initial "
                        f"residual {label.initial_residual!r}")
    tv = init_b(w_red, label.epsilon_used)
    status = safe_region_status(tv, n, decomp, cloud)
    if status is not EXPECTED_STATUS[call]:
        problems.append(f"{call}: target at eps={label.epsilon_used!r} re-classifies as "
                        f"{status.value}, expected {EXPECTED_STATUS[call].value}")
    return problems


def rel_residual(label: SyntheticLabel, w_red, cloud) -> float:
    """||A y - b|| / ||b|| with b rebuilt at the label's annealed eps."""
    b = init_b(w_red, label.epsilon_used).b
    return float(np.linalg.norm(cloud.matrix @ label.soft - b) / np.linalg.norm(b))


def check_outputs(outs: dict, truth: LabelVector, w_red, cloud, decomp) -> dict:
    """Check every call's output of one instance.

    ``outs`` maps a call name ("oua", "ablation", "mv") to what it returned or
    the AnnealingError it raised.  A call fails when it raised or when any
    check on its output fails.
    """
    problems, failed = [], 0
    result = {"attempted": len(outs)}
    for call, out in outs.items():
        if isinstance(out, AnnealingError):
            problems.append(f"{call}: raised {type(out).__name__}: {out}")
            failed += 1
            continue
        if call == "mv":
            result["mv_accuracy"] = accuracy(out, truth).value
            continue
        bad = label_problems(out, call, w_red, cloud, decomp)
        problems += bad
        failed += bool(bad)
        if call == "oua":
            result["accuracy"] = accuracy(LabelVector(hard=out.hard, k=out.k), truth).value
            result["rel_residual"] = rel_residual(out, w_red, cloud)
    result["failed"] = failed
    result["problems"] = problems
    return result


def highs_vertex_indices(cloud, tol: float = 1e-8) -> np.ndarray:
    """Hull vertices by scipy HiGHS, one LP per distinct column.

    The same feasibility program as ``brute_force_vertex_oracle`` without its
    60-column guard: a distinct column is a vertex iff it is not a convex
    combination of the other distinct columns.  Duplicate groups report their
    lowest index, as ``hull_decompose`` does.
    """
    uniq_rows, first_idx = np.unique(cloud.matrix.T, axis=0, return_index=True)
    distinct = uniq_rows.T
    d = distinct.shape[1]
    if d == 1:
        return np.sort(first_idx[:1])
    opts = {
        "primal_feasibility_tolerance": max(tol, 1e-10),
        "dual_feasibility_tolerance": max(tol, 1e-10),
    }
    keep = np.ones(d, dtype=bool)
    verts = []
    for t in range(d):
        keep[t] = False
        others = distinct[:, keep]
        keep[t] = True
        res = linprog(
            c=np.zeros(d - 1),
            A_eq=np.vstack([others, np.ones((1, d - 1))]),
            b_eq=np.append(distinct[:, t], 1.0),
            bounds=(0.0, None),
            method="highs",
            options=opts,
        )
        inside = bool(res.success) and float(
            np.max(np.abs(others @ res.x - distinct[:, t]))) <= max(tol, 1e-7)
        if not inside:
            verts.append(first_idx[t])
    return np.sort(np.asarray(verts, dtype=np.int64))
