"""Numeric kernels: the phase-1 simplex, the label solve and the label spread.

The phase-1 simplex decides convex-combination feasibility, one LP at a time
on a 2-D tableau: hull membership, the anneal's probes and the vertex pass's
self-checks all run on it.  It enters the column with the most negative
reduced cost (Dantzig's rule) and falls back to the lowest-index column
(Bland's rule) during long runs of degenerate pivots, so it cannot cycle.
The label solve minimizes 1/2 ||A s - b||^2 over the label sums s of the
distinct columns of A, exactly: Wolfe's minimum-norm point in the image
A s - b, whose linear oracle is a sort-and-fill of the scores, stopped by a
certified Frank-Wolfe duality gap.  A closed-form spread scales a group's
labels toward 0 or 1 to meet a new sum: it gives the seeded start and lifts
the group sums back to one label per column.  All three are plain numpy;
only the pivot and major-cycle loops run in Python.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Phase-1 simplex: feasibility of  E @ lam = f,  lam >= 0.
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
# At the optimum the duals of the sign-normalized rows are 1 minus the reduced
# costs of the artificial columns; undoing the row signs gives duals y of
# E lam = f with y.E_j <= _PIVOT_TOL for every column j and y.f equal to the
# phase-1 objective, so an infeasible LP's y separates f from the columns of
# E.  The tableau is 2-D and the ratio test runs on Python floats, which round
# as numpy's do.
# ---------------------------------------------------------------------------

_DEGENERATE_RUN = 50
_PIVOT_TOL = 1e-11
_PIVOT_BUDGET_BASE = 200
_PIVOT_BUDGET_PER_DIM = 25


def phase1_simplex(E, f):
    """Phase-1 simplex on one LP ``E lam = f, lam >= 0`` (see the block above).

    Returns ``(lam, pivots, status, duals)``.
    """
    E = np.asarray(E, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    m1, p = E.shape
    ncols = p + m1
    sign = np.where(f < 0, -1.0, 1.0)
    T = np.zeros((m1 + 1, ncols + 1))
    T[:m1, :p] = E * sign[:, None]
    T[:m1, p:ncols] = np.eye(m1)
    T[:m1, ncols] = np.abs(f)
    # reduced costs for minimizing the sum of artificials
    T[m1, :p] = -T[:m1, :p].sum(axis=0)
    T[m1, ncols] = -T[:m1, ncols].sum()
    max_pivots = _PIVOT_BUDGET_BASE + _PIVOT_BUDGET_PER_DIM * (m1 + p)
    cost, rhs = T[m1, :ncols], T[:m1, ncols]
    basis = list(range(p, ncols))
    step = degenerate = 0
    while step < max_pivots:
        if degenerate < _DEGENERATE_RUN:
            enter = int(cost.argmin())
        else:
            enter = int((cost < -_PIVOT_TOL).argmax())
        c, r = T[:, enter].tolist(), rhs.tolist()
        # the least ratio, ties to the lowest basis index
        ratios = [(r[i] / c[i], basis[i], i) for i in range(m1) if c[i] > _PIVOT_TOL]
        if c[m1] >= -_PIVOT_TOL or not ratios:
            break
        best, _, leave = min(ratios)
        if best == math.inf:
            break
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        piv_row = T[leave] / c[leave]
        T -= T[:, enter, None] * piv_row
        T[leave] = piv_row
        basis[leave] = enter
        step += 1
    lam = np.zeros(p)
    basis = np.array(basis)
    lam[basis[basis < p]] = rhs[basis < p]
    return lam, step, int(step == max_pivots), (1.0 - T[m1, p:ncols]) * sign


# ---------------------------------------------------------------------------
# Spreading a sum over a group: the labels z in [0, 1] of a group of c columns
# sum to s0, and the group must sum to s in [0, c] instead.  Scaling toward 0,
#   y = z s / s0                      for s <= s0,
# or toward 1,
#   y = 1 - (1 - z) (c - s) / (c - s0)  for s > s0,
# meets the target in one pass and keeps y in [0, 1].  Either map is affine in
# z, y = a + r z with 0 <= r <= 1, so maps compose: the seeded start (one group
# of all nk labels, target n) and the lift of the optimal sums (one map per
# group) fold into one pass over the labels.  A target of 0 or of c gives
# r = 0 and labels of exactly 0 or 1, also from a start sum of 0 or c.
# ---------------------------------------------------------------------------


def spread(s0, s, c):
    """The maps ``y = a + r z`` that take groups of c labels from sum s0 to s.

    Returns ``(a, r)``, broadcast over the arguments; see the block above.
    """
    s0, s, c = (np.asarray(v, dtype=np.float64) for v in (s0, s, c))
    at_end = (s <= 0.0) | (s >= c)
    up = (s > s0) | (s >= c)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(at_end, 0.0, np.where(up, (c - s) / (c - s0), s / s0))
    return np.where(up, 1.0 - r, 0.0), r


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
# loop stops once it is at most GAP_TOL.  If not, A v - b joins the corral, and
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
# inside its bounds, which the lift would spread into labels an ulp off 0 or
# 1 that decode ties between classes the other way.
# ---------------------------------------------------------------------------

_WEIGHT_TOL = 1e-12  # convex weights at or below this leave the corral
GAP_TOL = 1e-6  # the relative gap at which the solve stops, converged
MAX_CYCLES = 20_000  # the budget of major cycles


def _relative_gap(A, b, counts, s, target, scale):
    """The linear oracle at s: ``(sqrt(2 G) / scale, v)`` for the fill v
    minimizing g.v over S, g = A^T (A s - b), and the Frank-Wolfe gap G."""
    g = A.T @ (A @ s - b)
    order = np.argsort(g, kind="stable")
    cap = counts[order]
    v = np.empty_like(s)
    # np.clip's bits without its Python wrapper: no -0.0 or NaN reaches it
    v[order] = np.minimum(np.maximum(target - (np.cumsum(cap) - cap), 0.0), cap)
    gap = float(g @ s - g @ v)
    return math.sqrt(2.0 * max(gap, 0.0)) / scale, v


def _affine_weights(Q):
    """Weights summing to 1 of the least-norm point in the hull of Q's columns."""
    if Q.shape[1] == 1:
        return np.ones(1)
    beta = np.linalg.lstsq(Q[:, 1:] - Q[:, :1], -Q[:, 0], rcond=None)[0]
    return np.concatenate(([1.0 - beta.sum()], beta))


def pgd(A, b, counts, s0, target):
    """Exact capped least squares over grouped columns (see the block above).

    Returns ``(s, iters, gap, converged)``: the group sums, the major cycles
    run (at most ``MAX_CYCLES``; each checks the gap first, so an optimal
    start reports 1), the certified relative gap at ``s`` and whether it is
    at most ``GAP_TOL``.  The kernel keeps the name of the projected-gradient
    loop it replaced because the benchmark's tracer patches ``backends.pgd``
    by name; it moves once that tracer reads a run record instead (ROADMAP
    item 1).
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(counts, dtype=np.float64)
    target = float(target)
    scale = max(1.0, float(np.linalg.norm(b)))
    s = np.array(s0, dtype=np.float64)
    V, Q, lam = s[None], (A @ s - b)[:, None], np.ones(1)  # atoms, images, weights
    for it in range(1, MAX_CYCLES + 1):
        gap, v = _relative_gap(A, b, c, s, target, scale)
        if gap <= GAP_TOL:
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
        # np.clip's bits: positive weights on atoms of +0.0 or more give no -0.0
        np.minimum(np.maximum(s, 0.0, out=s), c, out=s)
    gap = _relative_gap(A, b, c, s, target, scale)[0]
    return s, MAX_CYCLES, gap, gap <= GAP_TOL
