"""Numeric kernels: the phase-1 simplex and the capped-simplex gradient loop.

Two kernels dominate runtime: the phase-1 simplex used for convex-combination
feasibility (hull membership / vertex tests) and the box-projected gradient
descent loop of the label solver.  The simplex enters the column with the most
negative reduced cost (Dantzig's rule) and falls back to the lowest-index
column (Bland's rule) during long runs of degenerate pivots, so it cannot
cycle.  The gradient loop projects each iterate onto the capped simplex with a
safeguarded Newton iteration on the clip shift, warm-started from the previous
iteration's shift.  Both are plain numpy: the per-pivot and per-iteration work
is vectorised, and only the pivot and iteration loops run in Python.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Phase-1 simplex: feasibility of  E @ lam = f,  lam >= 0.
#
# The caller builds E = [C; 1^T] and f = [q; 1] so feasibility means exactly
# "q is a convex combination of the columns of C".  Rows must already be sign
# normalized (f >= 0).  Artificial variables start basic.  The entering column
# is the one with the most negative reduced cost (Dantzig's rule, first index
# on ties); the ratio test breaks ties by the lowest basis index.  After
# _DEGENERATE_RUN consecutive degenerate pivots (step length <= _PIVOT_TOL) the
# entering rule switches to the lowest index with a negative reduced cost
# (Bland's rule) until a pivot makes progress again.  Bland's rule cannot cycle
# through degenerate bases and every other pivot lowers the objective, so the
# loop terminates.  Returns (lam, n_pivots, status) with status 0 = optimum
# reached, 1 = pivot budget of 200 + 25 * (rows + columns) exhausted.  The
# caller decides feasibility from the explicit residual of lam, not from the
# phase-1 objective.
# ---------------------------------------------------------------------------

_DEGENERATE_RUN = 50
_PIVOT_TOL = 1e-11
_PIVOT_BUDGET_BASE = 200
_PIVOT_BUDGET_PER_DIM = 25


def phase1_simplex(E, f):
    """Run phase-1 simplex on ``E lam = f, lam >= 0`` (rows sign-normalized)."""
    E = np.ascontiguousarray(E, dtype=np.float64)
    f = np.ascontiguousarray(f, dtype=np.float64)
    m1, p = E.shape
    max_pivots = _PIVOT_BUDGET_BASE + _PIVOT_BUDGET_PER_DIM * (m1 + p)
    ncols = p + m1
    T = np.zeros((m1 + 1, ncols + 1))
    T[:m1, :p] = E
    T[:m1, p : p + m1] = np.eye(m1)
    T[:m1, ncols] = f
    # reduced costs for minimizing the sum of artificials
    T[m1, :p] = -E.sum(axis=0)
    T[m1, ncols] = -f.sum()

    cost = T[m1, :ncols]  # views into the tableau, updated in place
    rhs = T[:m1, ncols]
    basis = np.arange(p, p + m1, dtype=np.int64)
    pivots = 0
    degenerate = 0
    while pivots < max_pivots:
        if degenerate < _DEGENERATE_RUN:
            enter = int(np.argmin(cost))
            if cost[enter] >= -_PIVOT_TOL:
                break
        else:
            neg = np.flatnonzero(cost < -_PIVOT_TOL)
            if neg.size == 0:
                break
            enter = int(neg[0])
        rows = np.flatnonzero(T[:m1, enter] > _PIVOT_TOL)
        if rows.size == 0:
            break  # column unbounded; cannot improve -> stop
        ratios = rhs[rows] / T[rows, enter]
        best = ratios.min()
        ties = rows[ratios == best]
        leave = int(ties[np.argmin(basis[ties])])
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
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
    status = 0 if pivots < max_pivots else 1
    return lam, pivots, status


# ---------------------------------------------------------------------------
# Projected gradient descent for  min ||A y - b||_2  over the capped simplex
# {y in [0, 1]^p : sum(y) = target}.  Each iterate is projected back onto the
# feasible set by a shift-and-clip: s(tau) = sum(clip(z + tau, 0, 1)) is
# continuous, nondecreasing and piecewise linear in tau, with slope equal to
# the number of coordinates strictly inside (0, 1).  A Newton step
# tau += (target - s(tau)) / #free therefore lands on the feasible shift as
# soon as the free set is right.  The iteration starts from the previous
# gradient step's shift and keeps a bracket [lo, hi] with s(lo) <= target <=
# s(hi); a step that leaves the bracket, or one taken with no free
# coordinate, is replaced by bisection.  It stops when the sum is exact or the
# next step is below the resolution of tau.  The gradient loop stops when the
# infinity-norm change of the iterate falls below conv_tol.
# ---------------------------------------------------------------------------

_PROJ_MAX_STEPS = 200  # Newton steps plus bisection fallbacks, a safeguard only
_TAU_RESOLUTION = 4.0 * np.finfo(np.float64).eps


def _project_capped(z, target, tau=None):
    """Return ``(clip(z + tau*, 0, 1), tau*)`` with the sum equal to target.

    ``tau`` is a starting guess for the shift; None, or a guess outside the
    bracket, starts from the bracket midpoint.
    """
    lo = -float(z.max())  # s(lo) = 0
    hi = 1.0 - float(z.min())  # s(hi) = p
    if tau is None or not lo < tau < hi:
        tau = 0.5 * (lo + hi)
    for _ in range(_PROJ_MAX_STEPS):
        y = np.clip(z + tau, 0.0, 1.0)
        gap = target - float(y.sum())
        if gap > 0.0:
            lo = tau
        elif gap < 0.0:
            hi = tau
        else:
            break
        n_free = int(np.count_nonzero((y > 0.0) & (y < 1.0)))
        step = tau + gap / n_free if n_free else 0.5 * (lo + hi)
        if abs(step - tau) <= _TAU_RESOLUTION * max(1.0, abs(tau)):
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        tau = step
    return y, tau


def project_capped_simplex(z, target):
    """Shift-and-clip projection of z onto {y in [0,1]^p : sum(y) = target}."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    return _project_capped(z, float(target))[0]


def pgd(A, b, y0, target, lr, conv_tol, max_iters):
    """Capped-simplex-projected gradient descent.

    Returns (y, iters, last_delta, converged).  ``target`` is the exact value
    the label sum is held at by the per-step projection.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    target, lr, conv_tol = float(target), float(lr), float(conv_tol)
    y, tau = _project_capped(y0, target)
    delta = np.inf
    it = 0
    for it in range(1, int(max_iters) + 1):
        r = A @ y - b
        z = y - lr * (A.T @ r)
        ynew, tau = _project_capped(z, target, tau)
        delta = float(np.max(np.abs(ynew - y)))
        y = ynew
        if delta < conv_tol:
            return y, it, delta, True
    return y, it, delta, False
