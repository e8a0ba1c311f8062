"""Acceptance gate: one test and one printed verdict line per guarantee.

Each criterion computes at its stated tolerance, records a PASS/FAIL line
(printed in the terminal summary), and then asserts.  The last criterion
needs user-supplied benchmark exports and is skipped unless
ONIONLABEL_WRENCH_DIR points at them.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from onionlabel.hull import (
    ColumnCloud,
    SafeRegionStatus,
    build_A,
    extreme_points,
    hull_decompose,
    safe_region_status,
)
from onionlabel.metrics import accuracy, majority_vote
from onionlabel.signals import (
    LabelVector,
    expand_pws,
    expected_error_rate,
    load_pws_matrix,
    reduce_signals,
)
from onionlabel.solver import (
    SolverConfig,
    anneal_b,
    augment_system,
    epsilon_upper_bound,
    run_oua,
    solve_labels,
)
from onionlabel.synth import (
    SynthSpec,
    brute_force_vertex_oracle,
    generate_instance,
    run_ablation,
)


# ---------------------------------------------------------------------------
# 1. random hard labels score the chance-level error rate


def test_criterion_1_random_guess_error_rate(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for k in (2, 3, 5):
        n = 1000
        vals = []
        for s in range(20):
            rng = np.random.default_rng(1000 * k + s)
            w = expand_pws(rng.integers(1, k + 1, size=(1, n)), k)
            y = LabelVector(hard=rng.integers(1, k + 1, size=n), k=k)
            vals.append(expected_error_rate(w.values[0], y))
        bound = 2 / k - 2 / k**2
        diff = abs(float(np.mean(vals)) - bound)
        worst = max(worst, diff)
        details.append(f"k={k} |mean-bound|={diff:.4f}")
    wall = time.perf_counter() - t0
    ok = worst <= 0.02 and wall < 1.0
    acceptance.record(
        "criterion 1 (random labels hit 2/k-2/k^2 within 0.02)",
        ok, f"{'; '.join(details)}; wall={wall:.2f}s",
    )
    assert worst <= 0.02
    assert wall < 1.0


# ---------------------------------------------------------------------------
# 2. the zero vector scores exactly 1/k


def test_criterion_2_zero_vector_rate(acceptance):
    n = 50
    exact = []
    for k in range(2, 7):
        y = LabelVector(hard=np.ones(n, dtype=np.int64), k=k)
        exact.append(expected_error_rate(np.zeros(n * k), y) == 1.0 / k)
    ok = all(exact)
    acceptance.record(
        "criterion 2 (zero vector scores exactly 1/k for k=2..6)",
        ok, f"exact equality for k=2..6: {exact}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. the fast vertex finder agrees with an independent LP oracle


def test_criterion_3_hull_oracle_equivalence(acceptance):
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        m = int(rng.integers(2, 5))          # m <= 4
        p = int(rng.integers(5, 41))         # nk <= 40
        mat = rng.uniform(0.0, 2.0, size=(m, p))
        if i % 3 == 0:
            mat = np.round(mat)              # vote-like grid: many duplicates
        if i % 5 == 0 and p > 3:
            mat[:, p // 2] = mat[:, 0]       # exact duplicate column
        cloud = ColumnCloud(mat)
        if extreme_points(cloud).tolist() != brute_force_vertex_oracle(cloud).tolist():
            mismatches += 1
    wall = time.perf_counter() - t0
    ok = mismatches == 0 and wall < 30.0
    acceptance.record(
        "criterion 3 (vertex finder == LP oracle on 100 clouds)",
        ok, f"mismatches={mismatches}/100; wall={wall:.1f}s",
    )
    assert mismatches == 0
    assert wall < 30.0


# ---------------------------------------------------------------------------
# 4 + 5. annealed targets are SAFE and in-bounds; solver output is feasible


@pytest.fixture(scope="module")
def safe_region_suite():
    """50 planted instances (n=100, k in {2,3}, m=10 -> 5 after reduction)."""
    t0 = time.perf_counter()
    runs = []
    for i in range(50):
        k = 2 if i % 2 == 0 else 3
        spec = SynthSpec(
            n=100, k=k, m=10, signal_accuracy=0.8, abstain_rate=0.2, seed=1000 + i
        )
        w, _ = generate_instance(spec)
        w5 = reduce_signals(w, 5)
        cloud = build_A(w5)
        decomp = hull_decompose(cloud)
        tv = anneal_b(w5, cloud, decomp, SolverConfig())
        status = safe_region_status(tv, w.n, decomp, cloud)
        a_aug, b_aug = augment_system(cloud, tv, w.n)
        label = solve_labels(a_aug, b_aug, SolverConfig(), epsilon_used=tv.epsilon)
        runs.append({"k": k, "w5": w5, "tv": tv, "status": status, "label": label})
    return runs, time.perf_counter() - t0


def test_criterion_4_safe_region_postcondition(acceptance, safe_region_suite):
    runs, wall = safe_region_suite
    bad = 0
    for run in runs:
        k, w5, tv = run["k"], run["w5"], run["tv"]
        ub = epsilon_upper_bound(k)
        row_sums = w5.values.sum(axis=1)
        lo = -100 * k * ub + row_sums + 100   # b_i at eps = eps_max
        hi = row_sums + 100                   # b_i at eps = 0
        in_bounds = bool(
            np.all(tv.b >= lo - 1e-9) and np.all(tv.b <= hi + 1e-9)
        )
        if not (run["status"] is SafeRegionStatus.SAFE and in_bounds
                and 0.0 <= tv.epsilon <= ub):
            bad += 1
    ok = bad == 0 and wall < 60.0
    acceptance.record(
        "criterion 4 (annealed target SAFE and row-bounded on 50 instances)",
        ok, f"violations={bad}/50; wall={wall:.1f}s (includes the solves for criterion 5)",
    )
    assert bad == 0
    assert wall < 60.0


def test_criterion_5_solver_contract(acceptance, safe_region_suite):
    runs, _ = safe_region_suite
    bad = 0
    for run in runs:
        y = run["label"].soft
        box = y.min() >= 0.0 and y.max() <= 1.0
        sum_ok = abs(float(y.sum()) - 100) <= 100 * 1e-6
        mono = run["label"].residual <= run["label"].initial_residual
        if not (box and sum_ok and mono):
            bad += 1
    ok = bad == 0
    acceptance.record(
        "criterion 5 (exact box, sum within n*1e-6, residual not above start)",
        ok, f"violations={bad}/50",
    )
    assert bad == 0


# ---------------------------------------------------------------------------
# 6. seed-dependent exact solutions on an underdetermined instance


def test_criterion_6_solution_non_uniqueness(acceptance):
    n = 10  # nk = 20, m = 3
    v1 = np.tile([1.0, -1.0], n)
    v2 = np.concatenate([np.ones(n), -np.ones(n)])
    A = np.vstack([v1, v2, v1 * v2])  # mutually orthogonal, all orthogonal to 1
    rng = np.random.default_rng(7)
    y_star = rng.uniform(0.3, 0.7, size=2 * n)
    y_star *= n / y_star.sum()
    b = A @ y_star

    # certify b/n strictly inside Conv(H1): the 4 distinct columns form a
    # tetrahedron, so barycentric coordinates are unique; all must be interior
    verts = np.unique(A.T, axis=0).T
    assert verts.shape == (3, 4)
    lam = np.linalg.solve(
        np.vstack([verts, np.ones(4)]), np.concatenate([b / n, [1.0]])
    )
    assert lam.min() > 0.2

    cfg1, cfg2 = SolverConfig(seed=1), SolverConfig(seed=2)
    a_aug = np.vstack([A, np.ones(2 * n)])
    b_aug = np.concatenate([b, [float(n)]])
    s1 = solve_labels(a_aug, b_aug, cfg1)
    s2 = solve_labels(a_aug, b_aug, cfg2)
    dist = float(np.max(np.abs(s1.soft - s2.soft)))
    res_bound = 10 * cfg1.conv_tol
    ok = dist > 0.01 and s1.residual <= res_bound and s2.residual <= res_bound
    acceptance.record(
        "criterion 6 (two seeds, distinct exact solutions)",
        ok,
        f"inf-norm distance={dist:.3f} (> 0.01); residuals={s1.residual:.2e}, "
        f"{s2.residual:.2e} (<= {res_bound:.0e})",
    )
    assert dist > 0.01
    assert s1.residual <= res_bound and s2.residual <= res_bound


# ---------------------------------------------------------------------------
# 7 + 8. end-to-end quality on the planted suite, and the ablation gap


@pytest.fixture(scope="module")
def planted_suite():
    """5 seeds of (n=500, k=2, m=10, accuracy .8, abstain .3) with all methods."""
    t0 = time.perf_counter()
    oua, mv, abl = [], [], []
    for seed in range(5):
        spec = SynthSpec(
            n=500, k=2, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=seed
        )
        w, truth = generate_instance(spec)
        cfg = SolverConfig(seed=seed)
        label = run_oua(w, cfg)
        oua.append(accuracy(LabelVector(hard=label.hard, k=2), truth).value)
        mv.append(accuracy(majority_vote(w, seed=seed), truth).value)
        ablated = run_ablation(w, cfg)
        abl.append(accuracy(LabelVector(hard=ablated.hard, k=2), truth).value)
    return (
        float(np.mean(oua)),
        float(np.mean(mv)),
        float(np.mean(abl)),
        time.perf_counter() - t0,
    )


def test_criterion_7_end_to_end_quality(acceptance, planted_suite):
    oua_acc, mv_acc, _, wall = planted_suite
    ok = oua_acc >= 0.75 and oua_acc >= mv_acc - 0.02 and wall < 120.0
    acceptance.record(
        "criterion 7 (planted suite: solver quality vs majority vote)",
        ok,
        f"solver={oua_acc:.4f} (>= 0.75, >= mv-0.02), mv={mv_acc:.4f}; "
        f"wall={wall:.1f}s (< 120s, includes criterion 8 ablations)",
    )
    assert oua_acc >= 0.75
    assert oua_acc >= mv_acc - 0.02
    assert wall < 120.0


def test_criterion_8_ablation_direction(acceptance, planted_suite):
    oua_acc, _, abl_acc, _ = planted_suite
    ok = abl_acc <= oua_acc + 0.02
    acceptance.record(
        "criterion 8 (inner-hull ablation does not beat the safe region)",
        ok, f"ablation={abl_acc:.4f} <= safe={oua_acc:.4f} + 0.02",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. optional: user-supplied benchmark export


def test_criterion_9_wrench_youtube_export(acceptance):
    root = os.environ.get("ONIONLABEL_WRENCH_DIR")
    if not root:
        acceptance.skip(
            "criterion 9 (exported Youtube label matrices)",
            "set ONIONLABEL_WRENCH_DIR to a directory with weak_labels.json "
            "and truth.txt to run",
        )
        pytest.skip("ONIONLABEL_WRENCH_DIR not set")
    weak_path = Path(root) / "weak_labels.json"
    truth_path = Path(root) / "truth.txt"
    truth_hard = np.array(
        [int(line) for line in truth_path.read_text().split()], dtype=np.int64
    )
    n = truth_hard.size
    truth = LabelVector(hard=truth_hard, k=2)
    w = load_pws_matrix(str(weak_path), n=n, k=2)
    label = run_oua(w, SolverConfig())
    oua_acc = 100.0 * accuracy(LabelVector(hard=label.hard, k=2), truth).value
    ablated = run_ablation(w, SolverConfig())
    abl_acc = 100.0 * accuracy(LabelVector(hard=ablated.hard, k=2), truth).value
    ok = abs(oua_acc - 93.24) <= 3.0 and abs(abl_acc - 82.86) <= 5.0
    acceptance.record(
        "criterion 9 (exported Youtube label matrices)",
        ok, f"solver={oua_acc:.2f} (93.24 +/- 3.0), ablation={abl_acc:.2f} (82.86 +/- 5.0)",
    )
    assert abs(oua_acc - 93.24) <= 3.0
    assert abs(abl_acc - 82.86) <= 5.0
