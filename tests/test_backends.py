"""Numeric kernels: phase-1 simplex, the exact label solve and the label spread."""

from __future__ import annotations

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel import backends, hull
from onionlabel.backends import phase1_simplex, spread
from onionlabel.hull import build_A, hull_decompose
from onionlabel.signals import reduce_signals
from onionlabel.solver import (
    SolverConfig,
    anneal_b,
    augment_system,
    init_b,
    run_oua,
    solve_labels,
)
from onionlabel.synth import SynthSpec, generate_instance


# ---------------------------------------------------------------------------
# independent references


def _bisection_projection(z, target, steps=100):
    """clip(z + t, 0, 1) summing to target, by plain bisection on t."""
    lo, hi = float(np.min(-z)), float(np.max(1.0 - z))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(z + mid, 0.0, 1.0).sum() < target:
            lo = mid
        else:
            hi = mid
    return np.clip(z + 0.5 * (lo + hi), 0.0, 1.0)


def _full_length_gap(A, b, y, n):
    """The solver's certificate recomputed over all n*k labels.

    The Frank-Wolfe gap G of 1/2 ||A y - b||^2 over {y in [0,1]^p, sum = n}:
    the linear minimum puts ones on the n smallest scores.
    """
    g = A.T @ (A @ y - b)
    G = float(g @ y - np.sort(g)[:n].sum())
    return np.sqrt(2.0 * max(G, 0.0)) / max(1.0, float(np.linalg.norm(b)))


def _reference_pgd(A, b, y0, target, lr, conv_tol, max_iters):
    """Projected gradient descent on the augmented system, the solver it replaced."""
    y = _bisection_projection(y0, target)
    for it in range(1, max_iters + 1):
        ynew = _bisection_projection(y - lr * (A.T @ (A @ y - b)), target)
        delta = float(np.max(np.abs(ynew - y)))
        y = ynew
        if delta < conv_tol:
            return y, it, delta, True
    return y, it, delta, False


def _reference_phase1(E, f):
    """A plain one-LP phase-1 loop with ``phase1_simplex``'s pivot rules.

    Rows are sign-normalized here; returns ``(lam, pivots, status)``.
    """
    E = np.array(E, dtype=np.float64)
    f = np.array(f, dtype=np.float64)
    E[f < 0] *= -1.0
    f = np.abs(f)
    m1, p = E.shape
    max_pivots = (backends._PIVOT_BUDGET_BASE
                  + backends._PIVOT_BUDGET_PER_DIM * (m1 + p))
    tol = backends._PIVOT_TOL
    ncols = p + m1
    T = np.zeros((m1 + 1, ncols + 1))
    T[:m1, :p] = E
    T[:m1, p:ncols] = np.eye(m1)
    T[:m1, ncols] = f
    T[m1, :p] = -E.sum(axis=0)
    T[m1, ncols] = -f.sum()
    cost, rhs = T[m1, :ncols], T[:m1, ncols]
    basis = np.arange(p, ncols)
    pivots = degenerate = 0
    while pivots < max_pivots:
        if degenerate < backends._DEGENERATE_RUN:
            enter = int(np.argmin(cost))
            if cost[enter] >= -tol:
                break
        else:
            neg = np.flatnonzero(cost < -tol)
            if neg.size == 0:
                break
            enter = int(neg[0])
        rows = np.flatnonzero(T[:m1, enter] > tol)
        if rows.size == 0:
            break
        ratios = rhs[rows] / T[rows, enter]
        best = ratios.min()
        ties = rows[ratios == best]
        leave = int(ties[np.argmin(basis[ties])])
        degenerate = degenerate + 1 if best <= tol else 0
        piv_row = T[leave] / T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= np.outer(col, piv_row)
        T[leave] = piv_row
        basis[leave] = enter
        pivots += 1
    lam = np.zeros(p)
    for i in range(m1):
        if basis[i] < p:
            lam[basis[i]] = T[i, ncols]
    return lam, pivots, 0 if pivots < max_pivots else 1


# ---------------------------------------------------------------------------
# phase-1 simplex




def _combination_system(rng, feasible: bool):
    d = int(rng.integers(1, 4))
    p = int(rng.integers(2, 9))
    cols = rng.uniform(0.0, 2.0, size=(d, p))
    if feasible:
        q = cols @ rng.dirichlet(np.ones(p))
    else:
        q = cols.max(axis=1) + rng.uniform(0.5, 1.0, size=d)
    E = np.vstack([cols, np.ones((1, p))])
    f = np.append(q, 1.0)
    return E, f


@pytest.mark.parametrize("feasible", [True, False])
def test_simplex_twins_agree(monkeypatch, feasible):
    # the two pivot rules: the default Dantzig rule, and a zero-length
    # degenerate run that puts every pivot under the lowest-index rule.
    # They may stop at different vertices but must give the same verdict.
    rng = np.random.default_rng(42 if feasible else 43)
    for _ in range(25):
        E, f = _combination_system(rng, feasible)
        verdicts = []
        for run in (backends._DEGENERATE_RUN, 0):
            monkeypatch.setattr(backends, "_DEGENERATE_RUN", run)
            lam, _, status, _ = phase1_simplex(E, f)
            assert status == 0
            assert lam.min() >= 0.0
            verdicts.append(bool(np.max(np.abs(E @ lam - f)) <= 1e-9))
        assert verdicts == [feasible, feasible]


@pytest.mark.parametrize("feasible", [True, False])
def test_simplex_bland_fallback_still_solves(monkeypatch, feasible):
    # a zero-length degenerate run puts every pivot under the lowest-index rule
    rng = np.random.default_rng(44 if feasible else 45)
    monkeypatch.setattr(backends, "_DEGENERATE_RUN", 0)
    for _ in range(25):
        E, f = _combination_system(rng, feasible)
        lam, _, status, _ = phase1_simplex(E, f)
        assert status == 0
        assert lam.min() >= 0.0
        assert (np.max(np.abs(E @ lam - f)) <= 1e-9) == feasible


def _batch_and_single_solves(rng, lattice: bool):
    """A batch of LPs on a shared column set, each solved by
    ``phase1_simplex`` and checked bitwise against the reference loop's
    single solve, which has no duals.  Queries with negative coordinates
    exercise the row sign flips."""
    d, p = 4, 24
    if lattice:
        cols = rng.integers(0, 5, size=(d, p)) * 0.5
    else:
        cols = rng.uniform(0.0, 2.0, size=(d, p))
    inside = cols @ rng.dirichlet(np.ones(p), size=20).T
    corners = cols[:, rng.integers(0, p, size=5)]
    outside = rng.uniform(-1.0, 3.0, size=(d, 20))
    Q = np.hstack([inside, corners, outside])
    E = np.vstack([cols, np.ones((1, p))])
    for q in Q.T:
        f = np.append(q, 1.0)
        got, ref = phase1_simplex(E, f), _reference_phase1(E, f)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1:3] == ref[1:3]
        yield E, f, got


@pytest.mark.parametrize("run", [backends._DEGENERATE_RUN, 0])
def test_simplex_batch_matches_single_solves_and_certifies(monkeypatch, run):
    # every LP of the batch is bitwise the reference loop's solve, and each
    # infeasible LP's duals separate its point from the shared columns
    monkeypatch.setattr(backends, "_DEGENERATE_RUN", run)
    rng = np.random.default_rng(46)
    for lattice in (False, True):
        n_infeasible = n_lps = 0
        for E, f, (lam, pivots, status, duals) in _batch_and_single_solves(rng, lattice):
            n_lps += 1
            assert status == 0
            if np.max(np.abs(E @ lam - f)) > 1e-9:
                n_infeasible += 1
                assert np.max(duals @ E) <= 1e-9
                assert duals @ f > 1e-9
        assert 0 < n_infeasible < n_lps


@pytest.mark.parametrize("run", [backends._DEGENERATE_RUN, 0])
def test_simplex_kernels_stop_alike_when_the_budget_runs_out(monkeypatch, run):
    # a budget of 3 pivots: the LPs that need more stop with status 1 after
    # exactly 3 pivots in phase1_simplex and in the reference loop, with
    # bitwise equal iterates
    monkeypatch.setattr(backends, "_DEGENERATE_RUN", run)
    monkeypatch.setattr(backends, "_PIVOT_BUDGET_BASE", 3)
    monkeypatch.setattr(backends, "_PIVOT_BUDGET_PER_DIM", 0)
    rng = np.random.default_rng(48)
    for lattice in (False, True):
        stops = {(int(pivots), int(status))
                 for _, _, (_, pivots, status, _) in _batch_and_single_solves(rng, lattice)}
        assert (3, 1) in stops and any(status == 0 for _, status in stops)
        assert all(pivots <= 3 and status == (pivots == 3) for pivots, status in stops)


def test_simplex_batch_takes_one_matrix_per_lp(monkeypatch):
    # the vertex pass's self-check solves each candidate against its own
    # matrix: the candidates still kept, without the candidate itself
    rng = np.random.default_rng(47)
    distinct = np.unique(rng.uniform(0.0, 2.0, size=(3, 12)), axis=1)
    lps = []

    def recording(E, f):
        lps.append((E[:-1].copy(), f[:-1].copy()))
        return phase1_simplex(E, f)

    monkeypatch.setattr(hull, "phase1_simplex", recording)
    candidates = np.arange(distinct.shape[1])
    is_vertex, n_lps, _ = hull._self_check(distinct, candidates)
    assert n_lps == len(lps) == candidates.size
    kept = np.ones(candidates.size, dtype=bool)
    for j, (V, q) in enumerate(lps):
        assert q.tobytes() == distinct[:, j].tobytes()
        kept[j] = False
        assert V.tobytes() == np.ascontiguousarray(distinct[:, kept]).tobytes()
        kept[j] = is_vertex[j]
    assert 0 < is_vertex.sum() < candidates.size


def test_simplex_finds_known_combination():
    # q is the midpoint of two columns
    E = np.array([[0.0, 2.0], [1.0, 1.0]])
    f = np.array([1.0, 1.0])
    lam, _, status, _ = phase1_simplex(E, f)
    np.testing.assert_allclose(E @ lam, f, atol=1e-9)
    assert status == 0


# ---------------------------------------------------------------------------
# exact label solve, against the projected-gradient loop it replaced


def _small_system(rng, m=3, p=12, n=6):
    # lattice columns, so some are identical and share a label sum
    A = rng.integers(0, 3, size=(m, p)).astype(float)
    b = rng.uniform(0, 2 * n, size=m)
    return np.vstack([A, np.ones(p)]), np.append(b, float(n))


def test_solve_residual_not_above_converged_reference_pgd():
    rng = np.random.default_rng(7)
    cfg = SolverConfig(seed=3)
    for _ in range(5):
        a_aug, b_aug = _small_system(rng)
        n = int(b_aug[-1])
        lr = 1.0 / float(np.linalg.eigvalsh(a_aug @ a_aug.T)[-1])
        y0 = rng.uniform(0, 1, size=a_aug.shape[1])
        ref, _, _, ref_done = _reference_pgd(a_aug, b_aug, y0, float(n), lr, 1e-10, 200_000)
        assert ref_done
        A, b = a_aug[:-1], b_aug[:-1]
        ref_res = float(np.linalg.norm(A @ ref - b))
        lbl = solve_labels(a_aug, b_aug, cfg)
        assert lbl.converged and lbl.gap <= backends.GAP_TOL
        assert lbl.residual <= ref_res * (1.0 + 1e-6) + 1e-12
        assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
        assert abs(lbl.soft.sum() - n) <= 1e-9 * n
        # the certificate, recomputed over every label, agrees
        assert _full_length_gap(A, b, lbl.soft, n) <= backends.GAP_TOL
        assert _full_length_gap(A, b, lbl.soft, n) == pytest.approx(lbl.gap, abs=1e-8)


def test_gap_certifies_a_stopped_solve(monkeypatch):
    # cut short by its budget, the solve reports the gap of where it stopped
    rng = np.random.default_rng(9)
    a_aug, b_aug = _small_system(rng, m=4, p=36, n=12)
    A, b = a_aug[:-1], b_aug[:-1]
    for budget in (1, 2, 3):
        monkeypatch.setattr(backends, "MAX_CYCLES", budget)
        lbl = solve_labels(a_aug, b_aug, SolverConfig())
        assert lbl.iterations == budget
        assert lbl.gap == pytest.approx(_full_length_gap(A, b, lbl.soft, 12), abs=1e-8)
        assert lbl.converged == (lbl.gap <= 1e-6)


# Instances where a solver went wrong, with the seed of the solver's start.
# Projected gradient descent hit its 20,000-iteration budget on safe-region
# seed 1026 and planted n=5000.  A Newton on mu and the sum multiplier jointly
# ended 1.0 off the label sum on planted n=500 seed 0.  Armijo on dual values
# alone stalls in their rounding error on the solve-wide benchmark instance
# (seed 10), and sigma growing without a cap stalls above the tolerance on
# n=243 seed 135.
REGRESSIONS = {
    "safe-region-1026": (SynthSpec(n=100, k=2, m=10, signal_accuracy=0.8,
                                   abstain_rate=0.2, seed=1026), 0),
    "planted-n5000-k2-s0": (SynthSpec(n=5000, k=2, m=10, signal_accuracy=0.8,
                                      abstain_rate=0.3, seed=0), 0),
    "planted-n500-s0": (SynthSpec(n=500, k=2, m=10, signal_accuracy=0.8,
                                  abstain_rate=0.3, seed=0), 0),
    "solve-wide-s10": (SynthSpec(n=20000, k=2, m=5, signal_accuracy=0.8,
                                 abstain_rate=0.3, seed=10), 0),
    "uncapped-sigma-s135": (SynthSpec(n=243, k=2, m=5, signal_accuracy=0.8,
                                      abstain_rate=0.3, seed=135), 135),
}


def _annealed(spec, cfg):
    """The planted instance, its cloud and its annealed target under cfg."""
    w, _ = generate_instance(spec)
    w5 = reduce_signals(w, cfg.chunks)
    cloud = build_A(w5)
    return w, cloud, anneal_b(w5, cloud, hull_decompose(cloud), cfg)


def _assert_certified(cloud, tv, n, cfg):
    """Solve on the augmented system; converged, feasible, certified in full."""
    a_aug, b_aug = augment_system(cloud, tv, n)
    lbl = solve_labels(a_aug, b_aug, cfg, epsilon_used=tv.epsilon)
    assert lbl.converged and lbl.gap <= backends.GAP_TOL
    assert lbl.iterations <= 200
    y = lbl.soft
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(y.sum() - n) <= 1e-9 * n
    assert _full_length_gap(cloud.matrix, tv.b, y, n) <= backends.GAP_TOL


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_solve_certifies_regression_instances(name):
    spec, seed = REGRESSIONS[name]
    cfg = SolverConfig(seed=seed)
    w, cloud, tv = _annealed(spec, cfg)
    _assert_certified(cloud, tv, w.n, cfg)


def test_solve_finishes_near_the_reachable_boundary(monkeypatch):
    # this target lies about 1e-5 (relative) outside the set the labels can
    # reach, so the optimal fit sits on a face with many groups at their
    # bounds.  Proximal-point Newton ran all 20,000 iterations here in 29 s
    # and stopped with gap 1.11e-6
    spec = SynthSpec(n=5000, k=3, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=2)
    w, _ = generate_instance(spec)
    cfg = SolverConfig()
    w5 = reduce_signals(w, cfg.chunks)
    cloud, tv = build_A(w5), init_b(w5, 0.2253735252)
    _assert_certified(cloud, tv, w.n, cfg)
    # a tolerance below what rounding lets the corral reach: the new atom
    # gets no positive weight, and the solve stops there with its gap
    monkeypatch.setattr(backends, "GAP_TOL", 1e-12)
    lbl = solve_labels(*augment_system(cloud, tv, w.n), cfg)
    assert not lbl.converged and lbl.iterations <= 200
    assert lbl.gap > 1e-12 and _full_length_gap(cloud.matrix, tv.b, lbl.soft, w.n) > 1e-12


# A sample of the solver's robustness family: k in {2, 3, 4}, m in {3, 5, 8},
# three accuracy/abstain settings and seeds 0-19, with n drawn from [20, 400]
# by default_rng([k, m, seed]); one seed for each of the 27 combinations.
ROBUSTNESS = [
    (k, m, accuracy, abstain, i % 20)
    for i, (k, m, (accuracy, abstain)) in enumerate(itertools.product(
        (2, 3, 4), (3, 5, 8), ((0.8, 0.3), (0.65, 0.1), (0.9, 0.5))))
]


@pytest.mark.parametrize("k, m, accuracy, abstain, seed", ROBUSTNESS,
                         ids=[f"k{k}-m{m}-a{a}-s{s}" for k, m, a, _, s in ROBUSTNESS])
def test_solve_certifies_robustness_sample(k, m, accuracy, abstain, seed):
    n = int(np.random.default_rng([k, m, seed]).integers(20, 401))
    spec = SynthSpec(n=n, k=k, m=m, signal_accuracy=accuracy, abstain_rate=abstain, seed=seed)
    cfg = SolverConfig()
    w, cloud, tv = _annealed(spec, cfg)
    _assert_certified(cloud, tv, w.n, cfg)


def test_budget_ending_on_a_certified_point_reports_converged(caplog, monkeypatch):
    # the point the last budgeted cycle leaves is the one the next cycle
    # would have certified: the stopped solve is the full one, converged and
    # without a warning
    cfg = SolverConfig()
    w, cloud, tv = _annealed(REGRESSIONS["planted-n500-s0"][0], cfg)
    a_aug, b_aug = augment_system(cloud, tv, w.n)
    full = solve_labels(a_aug, b_aug, cfg)
    assert full.converged and full.iterations >= 2
    monkeypatch.setattr(backends, "MAX_CYCLES", full.iterations - 1)
    with caplog.at_level(logging.WARNING, logger="onionlabel.solver"):
        cut = solve_labels(a_aug, b_aug, cfg)
    assert cut.iterations == full.iterations - 1
    assert cut.converged and cut.gap <= backends.GAP_TOL
    assert cut.soft.tobytes() == full.soft.tobytes()
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_solve_returns_exact_group_sums_at_the_bounds(monkeypatch):
    # a group sum left an ulp inside (0, c) is spread into labels an ulp off
    # 0 or 1, and a tie between two classes then decodes the other way: at
    # planted n=10^6, k=3 that left 1,922 fewer groups at their ends and
    # moved 1,561 hard labels
    sums = []
    pgd = backends.pgd

    def recording(A, b, counts, *args):
        out = pgd(A, b, counts, *args)
        sums.append((out[0], counts))
        return out

    monkeypatch.setattr(backends, "pgd", recording)
    spec = SynthSpec(n=20000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=97)
    w, _ = generate_instance(spec)
    assert run_oua(w).converged
    [(s, c)] = sums
    inside = (s > 0.0) & (s < c)
    near = (s <= 1e-9 * c) | (s >= c - 1e-9 * c)
    assert not (inside & near).any()


# ---------------------------------------------------------------------------
# the label spread: the closed-form start and lift


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_spread_meets_each_target_inside_the_box(seed):
    # groups of start labels z, each taken to a target sum; targets include
    # the empty and the full group and the group's own start sum
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(1, 8))
    c = rng.integers(1, 40, size=n_groups).astype(float)
    group = np.repeat(np.arange(n_groups), c.astype(int))
    z = rng.uniform(0.0, 1.0, size=group.size)
    z[rng.random(group.size) < 0.1] = rng.choice([0.0, 1.0])
    s0 = np.bincount(group, z, n_groups)
    s = rng.uniform(0.0, 1.0, size=n_groups) * c
    pick = rng.integers(0, 4, size=n_groups)
    s = np.select([pick == 0, pick == 1, pick == 2], [0.0, c, s0], s)
    a, r = spread(s0, s, c)
    assert np.all((0.0 <= r) & (r <= 1.0))
    y = np.clip(a[group] + r[group] * z, 0.0, 1.0)
    np.testing.assert_allclose(np.bincount(group, y, n_groups), s, atol=1e-12 * c.max(), rtol=0)
    at_zero, at_full = (s == 0.0)[group], (s == c)[group]
    assert np.all(y[at_zero] == 0.0) and np.all(y[at_full] == 1.0)
    kept = (pick == 2)[group] & ~at_zero & ~at_full
    np.testing.assert_allclose(y[kept], z[kept], atol=1e-15, rtol=0)


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_projection_exact_box_and_sum_on_wide_inputs(seed):
    # one group, as in the start: z drawn wider than the box and clipped into
    # it, then spread to the target sum
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 30))
    target = float(rng.uniform(0.0, p))
    z = np.clip(rng.uniform(-2.0, 3.0, size=p), 0.0, 1.0)
    a, r = spread(z.sum(), target, p)
    y = np.clip(a + r * z, 0.0, 1.0)
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(y.sum() - target) <= 1e-12 * max(1.0, target)
    # the map is a common scaling toward 0 or toward 1 of every free label
    free = (z > 0.0) & (z < 1.0)
    if free.any():
        ratio = y[free] / z[free] if target <= z.sum() else (1.0 - y[free]) / (1.0 - z[free])
        assert np.ptp(ratio) <= 1e-12


def test_projection_is_idempotent_and_respects_feasible_points():
    # labels that already meet their group's target are returned unchanged
    y = np.array([0.25, 0.75, 0.5, 0.5])
    a, r = spread(y.sum(), 2.0, y.size)
    assert (float(a), float(r)) == (0.0, 1.0)
    assert np.clip(a + r * y, 0.0, 1.0).tobytes() == y.tobytes()


def test_spread_of_an_empty_start_to_zero_is_zero():
    # s0 = s = 0 is 0/0 in the downward map; the labels stay 0, not NaN
    a, r = spread([0.0, 0.0, 3.0], [0.0, 2.0, 3.0], [3.0, 3.0, 3.0])
    assert a.tolist() == [0.0, 1.0 - 1.0 / 3.0, 1.0] and r.tolist() == [0.0, 1.0 / 3.0, 0.0]


@pytest.fixture(scope="module")
def solve_wide():
    """The solve-wide instance (n=20000, k=2, m=5, seed 97): its augmented
    system, its solution and the label sums the solve returned."""
    spec = SynthSpec(n=20000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=97)
    cfg = SolverConfig()
    w, cloud, tv = _annealed(spec, cfg)
    a_aug, b_aug = augment_system(cloud, tv, w.n)
    sums = []
    pgd = backends.pgd

    def recording(*args):
        out = pgd(*args)
        sums.append(out[0])
        return out

    backends.pgd = recording
    try:
        lbl = solve_labels(a_aug, b_aug, cfg)
    finally:
        backends.pgd = pgd
    return w.n, cloud, a_aug, b_aug, lbl, sums[0]


def test_spread_invariants_at_solve_wide_size(solve_wide):
    n, cloud, a_aug, b_aug, lbl, sums = solve_wide
    y = lbl.soft
    _, _, group = cloud.groups
    c = np.bincount(group)
    assert lbl.converged
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(float(y.sum()) - n) <= 1e-9 * n
    assert np.all(np.abs(np.bincount(group, y) - sums) <= 1e-12 * c)
    empty, full = (sums == 0.0)[group], (sums == c)[group]
    assert empty.any() and full.any()
    assert np.all(y[empty] == 0.0) and np.all(y[full] == 1.0)
    other = solve_labels(a_aug, b_aug, SolverConfig(seed=1)).soft
    assert np.max(np.abs(other - y)) > 0.1


def test_optimal_start_reports_its_own_residual(solve_wide):
    # optimal start sums are certified in the first cycle and returned as
    # they are, so the residual is the start's, exactly
    _, cloud, _, b_aug, lbl, sums = solve_wide
    distinct, _, group = cloud.groups
    counts = np.bincount(group).astype(np.float64)
    b = b_aug[:-1]
    s, iters, gap, converged = backends.pgd(distinct, b, counts, sums, b_aug[-1])
    assert iters == 1 and converged and gap == lbl.gap
    assert s.tobytes() == sums.tobytes()
    assert float(np.linalg.norm(distinct @ s - b)) == lbl.residual


def test_run_oua_lifts_without_a_shift_clip_warning(caplog):
    # the closed-form lift that replaced shift_clip's iterative one has no
    # step budget to run out: run_oua logs no WARNING anywhere in the package
    spec = SynthSpec(n=500, k=3, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=0)
    w, _ = generate_instance(spec)
    with caplog.at_level(logging.WARNING, logger="onionlabel"):
        res = run_oua(w)
    assert res.converged
    assert not caplog.records
