"""Numeric kernels: the phase-1 simplex, shift-and-clip and the label solve.

The phase-1 simplex decides convex-combination feasibility (hull membership
and vertex tests).  It enters the column with the most negative reduced cost
(Dantzig's rule) and falls back to the lowest-index column (Bland's rule)
during long runs of degenerate pivots, so it cannot cycle.  The label solve
minimizes 1/2 ||A s - b||^2 over the label sums s of the distinct columns of
A, exactly: Wolfe's minimum-norm point in the image A s - b, whose linear
oracle is a sort-and-fill of the scores, stopped by a certified Frank-Wolfe
duality gap.  One shift-and-clip routine projects onto capped simplices: the
seeded start, and the lift of the group sums back to one label per column.
All three are plain numpy; only the pivot, major-cycle and shift loops run in
Python.
"""

from __future__ import annotations

import logging
import math

import numpy as np

log = logging.getLogger("onionlabel.backends")

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
# Shift-and-clip: y = clip(z + t_g, 0, 1) with the sum over every group g equal
# to its target.  A group sum s_g(t) is continuous, nondecreasing and
# piecewise linear in t_g, with slope equal to the number of entries strictly
# inside (0, 1).  A Newton step t += (target - s(t)) / slope therefore lands
# on the feasible shift as soon as the free set is right.  Every group keeps a
# bracket [lo, hi] with s(lo) <= target <= s(hi); a step that leaves the
# bracket, or one taken with no free entry, is replaced by bisection.  A group
# stops when its sum is exact, or its next step or its bracket is below the
# resolution of t: near a full group the rounding of the sum can exceed what
# one step of t moves it, so the bracket closes on adjacent floats while the
# step stays above the resolution.  Targets of 0 and of a group's whole size
# are met at the bracket ends, so those groups start there.  The callers need
# two cases: one group (the seeded start) and many groups (the lift of the
# label sums).  A single group runs the same steps on a scalar shift with no
# group array, summing in index order as bincount does, so both paths give
# the same bits.  Many groups drop the entries of settled groups once those
# of the unsettled ones are few; each sum still runs over the same entries in
# the same order, so the bits do not change.
# ---------------------------------------------------------------------------

_SHIFT_MAX_STEPS = 200  # Newton steps plus bisection fallbacks, a safeguard only
_T_RESOLUTION = 4.0 * np.finfo(np.float64).eps


def shift_clip(z, target, groups=None, t=None):
    """Return ``(y, t)`` with ``y = clip(z + t[groups], 0, 1)``.

    ``t`` holds one shift per group, chosen so that each group of ``y`` sums
    to its entry of ``target`` (a scalar for a single group).  ``groups``
    gives each entry's group in 0..G-1 (None: one group, whose shift is kept
    as a scalar and whose sums run in index order, as ``bincount``'s do).
    Each target must lie in [0, the group's size].  A starting ``t`` of None,
    or one outside the bracket, starts from the bracket midpoint.  When
    ``_SHIFT_MAX_STEPS`` run out first, it logs a WARNING and returns the
    last iterate.
    """
    if groups is None:
        # the group sums to 0 at lo and to its whole size at hi
        lo, hi = -float(np.max(z)), float(np.max(1.0 - z))
        target = np.asarray(target, dtype=np.float64).item()
        t = math.nan if t is None else np.asarray(t, dtype=np.float64).item()
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        if target <= 0.0:
            t = lo
        elif target >= z.size:
            t = hi
        for _ in range(_SHIFT_MAX_STEPS):
            y = np.clip(z + t, 0.0, 1.0)
            gap = target - float(np.cumsum(y)[-1])
            if gap > 0.0:
                lo = t
            elif gap < 0.0:
                hi = t
            slope = float(np.count_nonzero((y > 0.0) & (y < 1.0)))
            step = t + gap / slope if slope > 0.0 else 0.5 * (lo + hi)
            res = _T_RESOLUTION * max(1.0, abs(t))
            if gap == 0.0 or abs(step - t) <= res or hi - lo <= res:
                break
            t = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            _warn_unsettled(1, abs(gap))
        return y, np.array([t])

    full = np.bincount(groups)
    n_groups = full.size
    target = np.broadcast_to(np.asarray(target, dtype=np.float64), (n_groups,))
    lo, hi = np.full(n_groups, -float(np.max(z))), np.full(n_groups, float(np.max(1.0 - z)))
    t = np.full(n_groups, np.nan if t is None else t, dtype=np.float64)
    t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
    t = np.where(target <= 0.0, lo, np.where(target >= full, hi, t))
    done = np.zeros(n_groups, dtype=bool)
    out = at = None  # the whole y, and the indices in it of the entries iterated
    for _ in range(_SHIFT_MAX_STEPS):
        y = np.clip(z + t[groups], 0.0, 1.0)
        gap = target - np.bincount(groups, y, n_groups)
        lo = np.where(gap > 0.0, t, lo)
        hi = np.where(gap < 0.0, t, hi)
        slope = np.bincount(groups, (y > 0.0) & (y < 1.0), n_groups)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope > 0.0, t + gap / slope, 0.5 * (lo + hi))
        res = _T_RESOLUTION * np.maximum(1.0, np.abs(t))
        done |= (gap == 0.0) | (np.abs(step - t) <= res) | (hi - lo <= res)
        if done.all():
            break
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        t = np.where(done, t, step)
        # targets near an end of a group's range take more steps than the
        # rest; dropping the settled entries costs about one step, so it
        # waits until the unsettled ones are under an eighth
        if 8 * int(full[~done].sum()) < groups.size:
            live = np.flatnonzero(~done[groups])
            if out is None:
                out, at = y, live
            else:
                out[at] = y
                at = at[live]
            z, groups = z[live], groups[live]
    else:
        _warn_unsettled(int(np.count_nonzero(~done)), float(np.abs(gap[~done]).max()))
    if out is not None:
        out[at] = y
        y = out
    return y, t


def _warn_unsettled(groups: int, error: float):
    log.warning("shift_clip ran out of its %d steps with %d unsettled group(s), largest "
                "sum error %.3g", _SHIFT_MAX_STEPS, groups, error)


# ---------------------------------------------------------------------------
# Capped least squares over grouped columns: min 1/2 ||A s - b||^2 over
# S = {0 <= s <= c, sum(s) = n}, where column j of A stands for c_j identical
# columns of the full system and s_j for the sum of their labels.
#
# Wolfe's minimum-norm-point algorithm (Math. Programming 1976) finds the
# point of P = {A s - b : s in S} nearest the origin.  It keeps a corral of
# atoms A v_i - b, v_i in S, with convex weights lam_i; the current point is
# s = sum_i lam_i v_i and x = A s - b.  A major cycle asks the linear oracle
# for the v in S that minimizes h.v, h = A^T x: a stable sort of h, then each
# group filled up to its cap c_j in that order until the sum reaches n.  Its
# Frank-Wolfe gap G = h.s - h.v bounds f(s) - f*, and f(s) - f* >=
# 1/2 ||A s - A s*||^2, so the reported gap sqrt(2 G) / max(1, ||b||) bounds
# the distance of A s from the unique optimal fit A s*, relative to b; the
# loop stops once it is at most tol.  Otherwise A v - b joins the corral, and
# minor cycles follow: the corral's affine hull has a point of least norm,
# found by one least-squares solve in the differences of the atoms (at most
# m + 1 of them in R^m).  If all its weights are positive it becomes the new
# point; if not, the point moves toward it until a weight reaches zero, that
# atom leaves, and the minor cycle repeats.  In exact arithmetic each major
# cycle lowers ||x||, the corral stays affinely independent and the new atom
# keeps a positive weight.  Rounding can break the last two near the optimum;
# the least-squares solve then takes the minimum-norm weights of a dependent
# corral, and an atom that is already in the corral or whose affine weight is
# not above _WEIGHT_TOL ends the solve, with the gap of where it stopped.
# The first atom is the start s0.  A group on which every atom agrees gets
# that value exactly, not a weighted sum that rounding can leave an ulp
# inside its bounds, where the lift would have to converge to it.
# ---------------------------------------------------------------------------

_WEIGHT_TOL = 1e-12  # convex weights at or below this leave the corral


def _relative_gap(A, b, counts, s, target, scale):
    """The linear oracle at s: ``(sqrt(2 G) / scale, v)`` for the fill v
    minimizing g.v over S, g = A^T (A s - b), and the Frank-Wolfe gap G."""
    g = A.T @ (A @ s - b)
    order = np.argsort(g, kind="stable")
    cap = counts[order]
    v = np.empty_like(s)
    v[order] = np.clip(target - (np.cumsum(cap) - cap), 0.0, cap)
    gap = float(g @ s - g @ v)
    return math.sqrt(2.0 * max(gap, 0.0)) / scale, v


def _affine_weights(Q):
    """Weights summing to 1 of the least-norm point in the hull of Q's columns."""
    if Q.shape[1] == 1:
        return np.ones(1)
    beta = np.linalg.lstsq(Q[:, 1:] - Q[:, :1], -Q[:, 0], rcond=None)[0]
    return np.concatenate(([1.0 - beta.sum()], beta))


def pgd(A, b, counts, s0, target, tol, max_iters):
    """Exact capped least squares over grouped columns (see the block above).

    Returns ``(s, iters, gap, converged)``: the group sums, the major cycles
    run (each one checks the gap first, so an optimal start reports 1), the
    certified relative gap at ``s`` and whether it is at most ``tol``.  The
    kernel keeps the name of the projected-gradient loop it replaced because
    the benchmark's tracer patches ``backends.pgd`` by name; it moves once
    that tracer reads a run record instead (ROADMAP item 1).
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(counts, dtype=np.float64)
    target, tol = float(target), float(tol)
    scale = max(1.0, float(np.linalg.norm(b)))
    s = np.array(s0, dtype=np.float64)
    V, Q, lam = s[None], (A @ s - b)[:, None], np.ones(1)  # atoms, images, weights
    for it in range(1, int(max_iters) + 1):
        gap, v = _relative_gap(A, b, c, s, target, scale)
        if gap <= tol:
            return s, it, gap, True
        if (V == v).all(axis=1).any():
            return s, it, gap, False
        V, Q, lam = np.vstack([V, v]), np.column_stack([Q, A @ v - b]), np.append(lam, 0.0)
        a = _affine_weights(Q)
        if a[-1] <= _WEIGHT_TOL:
            return s, it, gap, False
        while a.min() <= _WEIGHT_TOL:
            falls = a < lam  # step from lam toward a until a weight reaches 0
            theta = min(1.0, float(np.min(lam[falls] / (lam[falls] - a[falls]), initial=1.0)))
            lam = lam + theta * (a - lam)
            keep = lam > _WEIGHT_TOL
            V, Q, lam = V[keep], Q[:, keep], lam[keep] / lam[keep].sum()
            a = _affine_weights(Q)
        lam = a
        s = lam @ V
        agree = (V == V[0]).all(axis=0)
        s[agree] = V[0, agree]
        np.clip(s, 0.0, c, out=s)
    gap = _relative_gap(A, b, c, s, target, scale)[0]
    return s, int(max_iters), gap, gap <= tol
