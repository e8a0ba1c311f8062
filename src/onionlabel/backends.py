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
# Phase-1 simplex: feasibility of  E @ lam = f,  lam >= 0,  for a batch of f.
#
# The caller builds E = [C; 1^T] and f = [q; 1] so feasibility means exactly
# "q is a convex combination of the columns of C".  Rows with f < 0 are sign
# flipped first so the artificial basis is feasible.  Artificial variables
# start basic.  The entering column is the one with the most negative reduced
# cost (Dantzig's rule, first index on ties); the ratio test breaks ties by the
# lowest basis index.  After _DEGENERATE_RUN consecutive degenerate pivots
# (step length <= _PIVOT_TOL) the entering rule switches to the lowest index
# with a negative reduced cost (Bland's rule) until a pivot makes progress
# again.  Bland's rule cannot cycle through degenerate bases and every other
# pivot lowers the objective, so the loop terminates.  Status 0 means the
# optimum was reached, 1 that the pivot budget of 200 + 25 * (rows + columns)
# ran out.  The caller decides feasibility from the explicit residual of lam,
# not from the phase-1 objective.
#
# The LPs of a batch share the shape of E and pivot in lockstep, each on its
# own tableau with the arithmetic of a lone solve, so every LP's lam, pivot
# count and status are bitwise those of its solve on its own.  An LP leaves
# the batch when it stops, and the remaining tableaus are compacted.  At the
# optimum the duals of the sign-normalized rows are 1 minus the reduced costs
# of the artificial columns; undoing the row signs gives duals y of E lam = f
# with y.E_j <= _PIVOT_TOL for every column j and y.f equal to the phase-1
# objective, so an infeasible LP's y separates f from the columns of E.
# ---------------------------------------------------------------------------

_DEGENERATE_RUN = 50
_PIVOT_TOL = 1e-11
_PIVOT_BUDGET_BASE = 200
_PIVOT_BUDGET_PER_DIM = 25


def phase1_batch(E, F):
    """Phase-1 simplex on ``E_b lam = F[b], lam >= 0`` for every row of ``F``.

    ``E`` is ``(rows, p)``, shared by every LP, or ``(B, rows, p)``; ``F`` is
    ``(B, rows)``.  Returns ``(lam, pivots, status, duals)`` of shapes
    ``(B, p)``, ``(B,)``, ``(B,)`` and ``(B, rows)``.
    """
    F = np.ascontiguousarray(F, dtype=np.float64)
    n_lp, m1 = F.shape
    E = np.asarray(E, dtype=np.float64)
    p = E.shape[-1]
    max_pivots = _PIVOT_BUDGET_BASE + _PIVOT_BUDGET_PER_DIM * (m1 + p)
    ncols = p + m1
    sign = np.where(F < 0, -1.0, 1.0)
    T = np.zeros((n_lp, m1 + 1, ncols + 1))
    T[:, :m1, :p] = E * sign[:, :, None]
    T[:, :m1, p:ncols] = np.eye(m1)
    T[:, :m1, ncols] = np.abs(F)
    # reduced costs for minimizing the sum of artificials
    T[:, m1, :p] = -T[:, :m1, :p].sum(axis=1)
    T[:, m1, ncols] = -T[:, :m1, ncols].sum(axis=1)

    lam = np.zeros((n_lp, p))
    pivots = np.zeros(n_lp, dtype=np.int64)
    status = np.zeros(n_lp, dtype=np.int64)
    duals = np.zeros((n_lp, m1))
    lp = np.arange(n_lp)  # the LP of each tableau still in the batch
    at = lp
    basis = np.arange(p, ncols)[None].repeat(n_lp, axis=0)
    degenerate = np.zeros(n_lp, dtype=np.int64)
    update = np.empty_like(T)
    step = 0
    while lp.size:
        if step == max_pivots:
            stop = np.ones(lp.size, dtype=bool)
        else:
            cost = T[:, m1, :ncols]
            enter = cost.argmin(axis=1)
            if step >= _DEGENERATE_RUN and degenerate.max() >= _DEGENERATE_RUN:
                bland = (cost < -_PIVOT_TOL).argmax(axis=1)
                enter = np.where(degenerate < _DEGENERATE_RUN, enter, bland)
            col = T[at, :, enter]
            # rows that bound the step of an improving entering column
            up = (col[:, :m1] > _PIVOT_TOL) & (col[:, m1:] < -_PIVOT_TOL)
            ratios = np.where(up, T[:, :m1, ncols], np.inf)
            np.divide(ratios, col[:, :m1], out=ratios, where=up)
            best = np.minimum.reduce(ratios, axis=1, keepdims=True)
            # optimal, or the entering column is unbounded and cannot improve
            stop = best[:, 0] == np.inf
        n_stop = np.count_nonzero(stop)
        if n_stop:
            done = lp[stop]
            pivots[done] = step
            status[done] = step == max_pivots
            duals[done] = (1.0 - T[stop, m1, p:ncols]) * sign[done]
            b_stop = basis[stop]
            i, r = np.nonzero(b_stop < p)
            lam[done[i], b_stop[i, r]] = T[stop, :m1, ncols][i, r]
            if n_stop == lp.size:
                break
            keep = ~stop
            T, lp, basis, degenerate = T[keep], lp[keep], basis[keep], degenerate[keep]
            enter, col, ratios, best = enter[keep], col[keep], ratios[keep], best[keep]
            at = np.arange(lp.size)
        leave = np.where(ratios == best, basis, ncols).argmin(axis=1)
        degenerate = (degenerate + 1) * (best[:, 0] <= _PIVOT_TOL)
        piv_row = T[at, leave]
        piv_row /= col[at, leave][:, None]
        # the update's pivot row is discarded: the row is overwritten below
        buf = update[: lp.size]
        np.multiply(col[:, :, None], piv_row[:, None, :], out=buf)
        T -= buf
        T[at, leave] = piv_row
        basis[at, leave] = enter
        step += 1
    return lam, pivots, status, duals


def phase1_simplex(E, f):
    """Run phase-1 simplex on ``E lam = f, lam >= 0``: one LP of ``phase1_batch``.

    Returns ``(lam, n_pivots, status)``.
    """
    lam, pivots, status, _ = phase1_batch(E, np.asarray(f, dtype=np.float64)[None])
    return lam[0], int(pivots[0]), int(status[0])


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
# the bracket ends, so those groups start there.  The callers need three
# cases: one group with unit weights and caps (the seeded start), one group
# with weights = caps = the group counts c (every dual evaluation of the label
# solve), and many groups with unit weights and caps (the lift).  A single
# group runs the same steps on a scalar shift with no group array, summing in
# index order as bincount does, so both paths give the same bits.
# ---------------------------------------------------------------------------

_SHIFT_MAX_STEPS = 200  # Newton steps plus bisection fallbacks, a safeguard only
_T_RESOLUTION = 4.0 * np.finfo(np.float64).eps


def shift_clip(z, target, counts=None, groups=None, t=None):
    """Return ``(y, t)`` with ``y = clip(z + counts * t[groups], 0, counts)``.

    ``t`` holds one shift per group, chosen so that each group of ``y`` sums
    to its entry of ``target`` (a scalar for a single group).  ``counts`` are
    positive weights and caps at once, ones when None; ``groups`` gives each
    entry's group in 0..G-1 and needs unit counts (None: one group, whose
    shift is kept as a scalar and whose sums run in index order, as
    ``bincount``'s do).  Each target must lie in [0, the group's total cap].
    A starting ``t`` of None, or one outside the bracket, starts from the
    bracket midpoint.
    """
    if groups is None:
        def total(v):
            return float(np.cumsum(v)[-1])

        # the group sums to 0 at lo and to its whole capacity at hi
        if counts is None:
            cap, lo, hi, full = 1.0, -float(np.max(z)), float(np.max(1.0 - z)), z.size
        else:
            cap, full = counts, total(counts)
            lo, hi = float(np.min(-z / counts)), float(np.max((counts - z) / counts))
        target = np.asarray(target, dtype=np.float64).item()
        t = math.nan if t is None else np.asarray(t, dtype=np.float64).item()
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        if target <= 0.0:
            t = lo
        elif target >= full:
            t = hi
        for _ in range(_SHIFT_MAX_STEPS):
            y = np.clip(z + t if counts is None else z + counts * t, 0.0, cap)
            gap = target - total(y)
            if gap > 0.0:
                lo = t
            elif gap < 0.0:
                hi = t
            free = (y > 0.0) & (y < cap)
            slope = float(np.count_nonzero(free)) if counts is None else total(counts * free)
            step = t + gap / slope if slope > 0.0 else 0.5 * (lo + hi)
            if gap == 0.0 or abs(step - t) <= _T_RESOLUTION * max(1.0, abs(t)):
                break
            t = step if lo < step < hi else 0.5 * (lo + hi)
        return y, np.array([t])

    full = np.bincount(groups)
    n_groups = full.size

    def group_sum(v):
        return np.bincount(groups, v, n_groups)

    target = np.broadcast_to(np.asarray(target, dtype=np.float64), (n_groups,))
    lo, hi = np.full(n_groups, -float(np.max(z))), np.full(n_groups, float(np.max(1.0 - z)))
    t = np.full(n_groups, np.nan if t is None else t, dtype=np.float64)
    t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
    t = np.where(target <= 0.0, lo, np.where(target >= full, hi, t))
    for _ in range(_SHIFT_MAX_STEPS):
        y = np.clip(z + t[groups], 0.0, 1.0)
        gap = target - group_sum(y)
        lo = np.where(gap > 0.0, t, lo)
        hi = np.where(gap < 0.0, t, hi)
        slope = group_sum((y > 0.0) & (y < 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope > 0.0, t + gap / slope, 0.5 * (lo + hi))
        done = (gap == 0.0) | (np.abs(step - t) <= _T_RESOLUTION * np.maximum(1.0, np.abs(t)))
        if done.all():
            break
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        t = np.where(done, t, step)
    return y, t


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
        s, t = shift_clip(centre - sigma * c * (A.T @ mu), target, c, t=t)
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
