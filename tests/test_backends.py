"""Numeric kernels: phase-1 simplex, shift-and-clip and the exact label solve."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel import backends
from onionlabel.backends import phase1_simplex, project_capped_simplex, shift_clip
from onionlabel.hull import build_A, hull_decompose
from onionlabel.signals import reduce_signals
from onionlabel.solver import SolverConfig, anneal_b, augment_system, solve_labels
from onionlabel.synth import SynthSpec, generate_instance


# ---------------------------------------------------------------------------
# independent references


def _bisection_projection(z, target, steps=100, weights=1.0, caps=1.0):
    """clip(z + weights * t, 0, caps) summing to target, by plain bisection on t."""
    lo, hi = float(np.min(-z / weights)), float(np.max((caps - z) / weights))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(z + weights * mid, 0.0, caps).sum() < target:
            lo = mid
        else:
            hi = mid
    return np.clip(z + weights * 0.5 * (lo + hi), 0.0, caps)


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
            lam, _, status = phase1_simplex(E, f)
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
        lam, _, status = phase1_simplex(E, f)
        assert status == 0
        assert lam.min() >= 0.0
        assert (np.max(np.abs(E @ lam - f)) <= 1e-9) == feasible


def test_simplex_finds_known_combination():
    # q is the midpoint of two columns
    E = np.array([[0.0, 2.0], [1.0, 1.0]])
    f = np.array([1.0, 1.0])
    lam, _, status = phase1_simplex(E, f)
    np.testing.assert_allclose(E @ lam, f, atol=1e-9)
    assert status == 0


# ---------------------------------------------------------------------------
# shift-and-clip: capped-simplex projection, weights, caps and groups


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_projection_matches_bisection_reference(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 30))
    target = float(rng.integers(1, p))  # feasible: 0 < target < p
    z = rng.uniform(-2.0, 3.0, size=p)
    y = project_capped_simplex(z, target)
    np.testing.assert_allclose(y, _bisection_projection(z, target), atol=1e-12, rtol=0)
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(y.sum() - target) <= 1e-9 * max(1.0, target)


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_projection_warm_start_matches_cold_start(seed):
    # a stale or out-of-bracket starting shift must not change the point
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 30))
    target = float(rng.uniform(0.5, p - 0.5))
    z = rng.uniform(-2.0, 3.0, size=p)
    cold, t_cold = shift_clip(z, target)
    for t0 in (t_cold[0] + rng.normal(), t_cold[0], -10.0, 10.0, float("nan")):
        warm, _ = shift_clip(z, target, t=t0)
        np.testing.assert_allclose(warm, cold, atol=1e-12, rtol=0)


def test_projection_at_breakpoint_without_free_coordinates():
    # the feasible shift is t = 0.5, where every coordinate sits on a bound
    z = np.array([0.5, 0.5, -0.5, -0.5])
    expected = np.array([1.0, 1.0, 0.0, 0.0])
    for t0 in (None, 0.3, 0.5, 0.9):
        y, _ = shift_clip(z, 2.0, t=t0)
        np.testing.assert_allclose(y, expected, atol=1e-15, rtol=0)
    # from t = 0 no coordinate is free, so the step must fall back to
    # bisection; the answer is clip(z + 3.5) = [1, 1, 0.5, 0.5]
    z = np.array([3.0, 3.0, -3.0, -3.0])
    y, t = shift_clip(z, 3.0, t=0.0)
    np.testing.assert_allclose(y, [1.0, 1.0, 0.5, 0.5], atol=1e-12, rtol=0)
    assert t[0] == pytest.approx(3.5, abs=1e-12)


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_projection_exact_box_and_sum_on_wide_inputs(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 30))
    target = float(rng.integers(1, p))
    z = rng.uniform(-2.0, 3.0, size=p)
    y = project_capped_simplex(z, target)
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(y.sum() - target) <= 1e-12 * max(1.0, target)
    # the shift is common to every free coordinate
    free = (y > 0.0) & (y < 1.0)
    if free.any():
        shift = y[free] - z[free]
        assert np.ptp(shift) <= 1e-12


def test_projection_is_idempotent_and_respects_feasible_points():
    y = np.array([0.25, 0.75, 0.5, 0.5])
    got = project_capped_simplex(y, 2.0)
    np.testing.assert_allclose(got, y, atol=1e-12)


def test_projection_matches_brute_force_in_2d():
    # exhaustive check of Euclidean optimality on a fine grid
    z = np.array([1.7, -0.4])
    target = 1.0
    got = project_capped_simplex(z, target)
    grid = np.linspace(0.0, 1.0, 2001)
    cand = np.stack([grid, target - grid], axis=1)
    cand = cand[(cand[:, 1] >= 0.0) & (cand[:, 1] <= 1.0)]
    best = cand[np.argmin(((cand - z) ** 2).sum(axis=1))]
    np.testing.assert_allclose(got, best, atol=1e-3)


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_shift_clip_groups_weights_and_caps_match_bisection(seed):
    # each group is its own weighted, capped problem; targets include the
    # empty and the full group, which sit at the ends of the bracket
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 40))
    n_groups = int(rng.integers(1, min(p, 6) + 1))
    groups = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, p - n_groups)])
    weights = rng.uniform(0.5, 3.0, size=p)
    caps = rng.integers(1, 5, size=p).astype(float)
    z = rng.uniform(-4.0, 6.0, size=p)
    full = np.bincount(groups, caps, n_groups)
    target = rng.uniform(0.0, 1.0, size=n_groups) * full
    target[rng.random(n_groups) < 0.2] = 0.0
    picks = rng.random(n_groups) < 0.2
    target[picks] = full[picks]
    y, t = shift_clip(z, target, weights, caps, groups)
    assert t.shape == (n_groups,)
    assert np.all(y >= 0.0) and np.all(y <= caps)
    np.testing.assert_allclose(np.bincount(groups, y, n_groups), target, atol=1e-9, rtol=0)
    for g in range(n_groups):
        at = groups == g
        want = _bisection_projection(z[at], target[g], 200, weights[at], caps[at])
        np.testing.assert_allclose(y[at], want, atol=1e-9, rtol=0)


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
        assert lbl.converged and lbl.gap <= cfg.conv_tol
        assert lbl.residual <= ref_res * (1.0 + 1e-6) + 1e-12
        assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
        assert abs(lbl.soft.sum() - n) <= 1e-9 * n
        # the certificate, recomputed over every label, agrees
        assert _full_length_gap(A, b, lbl.soft, n) <= cfg.conv_tol
        assert _full_length_gap(A, b, lbl.soft, n) == pytest.approx(lbl.gap, abs=1e-8)


def test_gap_certifies_a_stopped_solve():
    # cut short by its budget, the solve reports the gap of where it stopped
    rng = np.random.default_rng(9)
    a_aug, b_aug = _small_system(rng, m=4, p=36, n=12)
    A, b = a_aug[:-1], b_aug[:-1]
    for budget in (1, 2, 3):
        lbl = solve_labels(a_aug, b_aug, SolverConfig(max_iters=budget))
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


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_solve_certifies_regression_instances(name):
    spec, seed = REGRESSIONS[name]
    w, _ = generate_instance(spec)
    cfg = SolverConfig(seed=seed)
    w5 = reduce_signals(w, cfg.chunks)
    cloud = build_A(w5)
    tv = anneal_b(w5, cloud, hull_decompose(cloud), cfg)
    a_aug, b_aug = augment_system(cloud, tv, w.n)
    lbl = solve_labels(a_aug, b_aug, cfg, epsilon_used=tv.epsilon)
    assert lbl.converged and lbl.gap <= cfg.conv_tol
    assert lbl.iterations <= 200
    y = lbl.soft
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(y.sum() - w.n) <= 1e-9 * w.n
    assert _full_length_gap(cloud.matrix, tv.b, y, w.n) <= cfg.conv_tol
