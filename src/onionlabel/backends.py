"""Numeric kernels: the phase-1 simplex, shift-and-clip and the label solve.

The phase-1 simplex decides convex-combination feasibility (hull membership
and vertex tests).  It enters the column with the most negative reduced cost
(Dantzig's rule) and falls back to the lowest-index column (Bland's rule)
during long runs of degenerate pivots, so it cannot cycle.  The label solve
minimizes 1/2 ||A s - b||^2 over the label sums s of the distinct columns of
A, exactly: proximal point, each step's dual in m <= 5 variables solved by
semismooth Newton, stopped by a certified Frank-Wolfe duality gap.  One
shift-and-clip routine projects onto capped simplices everywhere: the seeded
start, the sum multiplier of every dual evaluation, and the lift of the group
sums back to one label per column.  All three are plain numpy; only the
pivot, Newton and shift loops run in Python.
"""

from __future__ import annotations

import math

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
# Shift-and-clip: y = clip(z + w * t_g, 0, cap) with the sum over every group g
# equal to its target.  A group sum s_g(t) is continuous, nondecreasing and
# piecewise linear in t_g, with slope equal to the weight of the entries
# strictly inside (0, cap).  A Newton step t += (target - s(t)) / slope
# therefore lands on the feasible shift as soon as the free set is right.
# Every group keeps a bracket [lo, hi] with s(lo) <= target <= s(hi); a step
# that leaves the bracket, or one taken with no free entry, is replaced by
# bisection.  A group stops when its sum is exact or its next step is below the
# resolution of t.  Targets of 0 and of a group's whole capacity are met at
# the bracket ends, so those groups start there.
# ---------------------------------------------------------------------------

_SHIFT_MAX_STEPS = 200  # Newton steps plus bisection fallbacks, a safeguard only
_T_RESOLUTION = 4.0 * np.finfo(np.float64).eps


def shift_clip(z, target, weights=None, caps=None, groups=None, t=None):
    """Return ``(y, t)`` with ``y = clip(z + weights * t[groups], 0, caps)``.

    ``t`` holds one shift per group, chosen so that each group of ``y`` sums
    to its entry of ``target`` (a scalar for a single group).  ``weights``
    and ``caps`` are positive and default to ones; ``groups`` gives each
    entry's group in 0..G-1 (None: one group).  Each target must lie in
    [0, the group's total cap].  A starting ``t`` of None, or one outside the
    bracket, starts from the bracket midpoint.
    """
    ones = np.ones_like(z)
    w = ones if weights is None else weights
    cap = ones if caps is None else caps
    if groups is None:
        groups = np.zeros(z.size, dtype=np.intp)
    n_groups = int(groups.max()) + 1

    def group_sum(v):
        return np.bincount(groups, v, n_groups)

    target = np.broadcast_to(np.asarray(target, dtype=np.float64), (n_groups,))
    # every group sums to 0 at lo and to its whole capacity at hi
    lo = np.full(n_groups, float(np.min(-z / w)))
    hi = np.full(n_groups, float(np.max((cap - z) / w)))
    t = np.full(n_groups, np.nan if t is None else t, dtype=np.float64)
    t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
    t = np.where(target <= 0.0, lo, np.where(target >= group_sum(cap), hi, t))
    for _ in range(_SHIFT_MAX_STEPS):
        y = np.clip(z + w * t[groups], 0.0, cap)
        gap = target - group_sum(y)
        lo = np.where(gap > 0.0, t, lo)
        hi = np.where(gap < 0.0, t, hi)
        slope = group_sum(w * ((y > 0.0) & (y < cap)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope > 0.0, t + gap / slope, 0.5 * (lo + hi))
        done = (gap == 0.0) | (np.abs(step - t) <= _T_RESOLUTION * np.maximum(1.0, np.abs(t)))
        if done.all():
            break
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        t = np.where(done, t, step)
    return y, t


def project_capped_simplex(z, target):
    """Euclidean projection of z onto {y in [0,1]^p : sum(y) = target}."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    return shift_clip(z, float(target))[0]


# ---------------------------------------------------------------------------
# Capped least squares over grouped columns: min 1/2 ||A s - b||^2 over
# S = {0 <= s <= c, sum(s) = n}, where column j of A stands for c_j identical
# columns of the full system and s_j for the sum of their labels.
#
# Proximal point: s+ = argmin_S 1/2 ||A s - b||^2 + sum_j (s_j - s0_j)^2 / (2 sigma c_j).
# Dualizing r = A s - b with multiplier mu in R^m leaves the concave, C^1 dual
#   psi(mu) = -1/2 |mu|^2 + mu.(A s(mu) - b) + sum_j (s_j(mu) - s0_j)^2 / (2 sigma c_j),
#   s(mu) = clip(s0 - sigma c A^T mu + c t, 0, c),
# with gradient A s(mu) - b - mu.  The sum multiplier t is eliminated exactly
# at every evaluation by shift_clip, so only m <= 5 unknowns remain.
# Semismooth Newton ascends psi with the generalized Hessian
#   I + sigma (A_F diag(c_F) A_F^T - v v^T / sum(c_F)),  v = A_F c_F,
# over the groups F strictly inside their box: the Schur complement of the
# sum row.  Steps backtrack from 1 by halving until Armijo's condition holds
# on psi, or, once the rise of psi is lost in its rounding error, until the
# approximate Armijo condition of Hager and Zhang (SIAM J. Optim. 2005) holds
# on the slope of psi along the step.  A subproblem counts as solved when its
# dual gradient fell by _INNER_RTOL; the centre then moves to s(mu) and sigma
# grows tenfold, up to _SIGMA_CAP / ||A diag(c) A^T||.  Past that cap s(mu)
# amplifies the rounding error of mu so far that the iteration stalls.
#
# Every s(mu) is feasible, so the Frank-Wolfe gap G = g.s - min_S g.s' with
# g = A^T (A s - b) bounds f(s) - f* at each iteration.  The linear minimum
# fills the smallest scores g_j up to capacity c_j until the sum reaches n.
# Since f(s) - f* >= 1/2 ||A s - A s*||^2, the reported gap
# sqrt(2 G) / max(1, ||b||) bounds the distance of A s from the unique
# optimal fit A s*, relative to b; the loop stops once it is at most tol.
# ---------------------------------------------------------------------------

_SIGMA_GROWTH = 10.0
_SIGMA_CAP = 1e4
_INNER_RTOL = 1e-3
_ARMIJO = 1e-4
_PSI_ROUNDING = 1e-10  # relative change of psi taken as rounding noise
_LINE_SEARCH_STEPS = 50


def _relative_gap(A, b, counts, s, target, scale):
    """sqrt(2 G) / scale for the Frank-Wolfe gap G of 1/2 ||A s - b||^2 at s."""
    g = A.T @ (A @ s - b)
    order = np.argsort(g, kind="stable")
    cap = counts[order]
    fill = np.clip(target - (np.cumsum(cap) - cap), 0.0, cap)
    gap = float(g @ s - g[order] @ fill)
    return math.sqrt(2.0 * max(gap, 0.0)) / scale


def pgd(A, b, counts, s0, target, tol, max_iters):
    """Exact capped least squares over grouped columns (see the block above).

    Returns ``(s, iters, gap, converged)``: the group sums, the Newton
    iterations run (each one checks the gap first, so an optimal start
    reports 1), the certified relative gap at ``s`` and whether it is at most
    ``tol``.  The kernel keeps the name of the projected-gradient loop it
    replaced because the benchmark's tracer patches ``backends.pgd`` by name;
    it moves once that tracer reads a run record instead (ROADMAP item 1).
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(counts, dtype=np.float64)
    target, tol = float(target), float(tol)
    scale = max(1.0, float(np.linalg.norm(b)))
    top = float(np.linalg.eigvalsh((A * c) @ A.T)[-1]) if A.shape[0] else 0.0
    top = top if top > 0.0 else 1.0
    sigma = 1.0 / top
    centre = np.ascontiguousarray(s0, dtype=np.float64)
    eye = np.eye(A.shape[0])

    def dual(mu, t):
        """s(mu), its shift, the gradient of psi at mu and psi(mu)."""
        s, t = shift_clip(centre - sigma * c * (A.T @ mu), target, c, c, t=t)
        grad = A @ s - b - mu
        value = 0.5 * (mu @ mu) + mu @ grad + float(((s - centre) ** 2 / c).sum()) / (2.0 * sigma)
        return s, t, grad, value

    mu = A @ centre - b
    s, t, grad, value = dual(mu, None)
    start = np.linalg.norm(grad)
    for it in range(1, int(max_iters) + 1):
        gap = _relative_gap(A, b, c, s, target, scale)
        if gap <= tol:
            return s, it, gap, True
        if np.linalg.norm(grad) <= _INNER_RTOL * start:
            centre, sigma = s, min(sigma * _SIGMA_GROWTH, _SIGMA_CAP / top)
            s, t, grad, value = dual(mu, t)
            start = np.linalg.norm(grad)
        free = (s > 0.0) & (s < c)
        A_free, c_free = A[:, free], c[free]
        hess = eye.copy()
        if c_free.size:
            v = A_free @ c_free
            hess += sigma * ((A_free * c_free) @ A_free.T - np.outer(v, v) / c_free.sum())
        step = np.linalg.solve(hess, grad)
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(_LINE_SEARCH_STEPS):
            mu_next = mu + alpha * step
            s_next, t_next, grad_next, value_next = dual(mu_next, t)
            rise = value_next - value
            if rise >= _ARMIJO * alpha * slope or (
                    rise >= -_PSI_ROUNDING * abs(value)
                    and grad_next @ step >= (2.0 * _ARMIJO - 1.0) * slope):
                break
            alpha *= 0.5
        mu, s, t, grad, value = mu_next, s_next, t_next, grad_next, value_next
    return s, int(max_iters), _relative_gap(A, b, c, s, target, scale), False
