"""Numeric kernels: phase-1 simplex, capped-simplex projection and PGD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel import backends
from onionlabel.backends import pgd, phase1_simplex, project_capped_simplex


# ---------------------------------------------------------------------------
# independent references


def _bisection_projection(z, target, steps=100):
    """Projection onto the capped simplex by plain bisection on the shift."""
    lo, hi = -float(z.max()), 1.0 - float(z.min())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(z + mid, 0.0, 1.0).sum() < target:
            lo = mid
        else:
            hi = mid
    return np.clip(z + 0.5 * (lo + hi), 0.0, 1.0)


def _reference_pgd(A, b, y0, target, lr, conv_tol, max_iters):
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
# capped-simplex projection


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
    cold, tau_cold = backends._project_capped(z, target)
    for tau0 in (tau_cold + rng.normal(), tau_cold, -10.0, 10.0, float("nan")):
        warm, _ = backends._project_capped(z, target, tau0)
        np.testing.assert_allclose(warm, cold, atol=1e-12, rtol=0)


def test_projection_at_breakpoint_without_free_coordinates():
    # the feasible shift is tau = 0.5, where every coordinate sits on a bound
    z = np.array([0.5, 0.5, -0.5, -0.5])
    expected = np.array([1.0, 1.0, 0.0, 0.0])
    for tau0 in (None, 0.3, 0.5, 0.9):
        y, _ = backends._project_capped(z, 2.0, tau0)
        np.testing.assert_allclose(y, expected, atol=1e-15, rtol=0)
    # from tau = 0 no coordinate is free, so the step must fall back to
    # bisection; the answer is clip(z + 3.5) = [1, 1, 0.5, 0.5]
    z = np.array([3.0, 3.0, -3.0, -3.0])
    y, tau = backends._project_capped(z, 3.0, 0.0)
    np.testing.assert_allclose(y, [1.0, 1.0, 0.5, 0.5], atol=1e-12, rtol=0)
    assert tau == pytest.approx(3.5, abs=1e-12)


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


# ---------------------------------------------------------------------------
# projected gradient descent


def test_pgd_matches_reference_loop():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m, p, n = 3, 12, 6
        A = np.vstack([rng.uniform(0, 2, size=(m, p)), np.ones(p)])
        b = np.concatenate([rng.uniform(0, 2 * n, size=m), [float(n)]])
        y0 = rng.uniform(0, 1, size=p)
        got = pgd(A, b, y0, float(n), 0.01, 1e-8, 2000)
        want = _reference_pgd(A, b, y0, float(n), 0.01, 1e-8, 2000)
        np.testing.assert_allclose(got[0], want[0], atol=1e-12, rtol=0)
        assert got[1] == want[1]  # iterations
        assert got[3] == want[3]  # converged flag
        # the projections differ in final ulps, so the last delta may too
        assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-15)


def test_pgd_iterates_stay_feasible():
    rng = np.random.default_rng(9)
    p, n = 10, 5
    A = np.vstack([rng.uniform(0, 2, size=(2, p)), np.ones(p)])
    b = np.concatenate([rng.uniform(0, 2 * n, size=2), [float(n)]])
    y, iters, delta, conv = pgd(A, b, rng.uniform(0, 1, p), float(n), 0.01, 1e-9, 500)
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert abs(y.sum() - n) <= 1e-8 * n
    assert iters >= 1 and delta >= 0.0
