"""Convex-hull layering of signal columns.

The doubled signal matrix ``A = 2 W`` is read as a cloud of n*k points in
R^m (one per column, coordinates in [0, 2]).  The outer layer H1 is the set
of hull vertices; everything else is H2.  The solver's safe region is the
part of Conv(H1) not covered by Conv(H2), and a candidate target point is
classified as INSIDE_H2, SAFE, or OUTSIDE_H1.

Membership is decided by convex-combination feasibility: ``q`` lies in the
hull of a column set iff some ``lam >= 0`` with ``sum(lam) = 1`` reproduces
``q`` within the infinity-norm tolerance ``HULL_TOL``.  Points on a hull
boundary therefore count as inside; in particular a point on the boundary of
Conv(H2) is classified INSIDE_H2.

Vertices are found by Clarkson's output-sensitive scheme (FOCS 1994) over the
distinct column values in lexicographic order.  The vertex set V starts as
the lexicographic maximum and the certified Akl-Toussaint seeds (IPL 1978).
A seed is the last value in lexicographic order that maximizes u.x for a
direction u among +-e_i and, while there are no more of them than distinct
values or than m^3, the sign vectors {+-1}^m.  It is certified when it beats
every other value by more than 5 HULL_TOL |u|_1 plus a rounding slack: then
no fit within HULL_TOL reproduces it from the others.  Each round solves
every pending value against Conv(V), all LPs in one lockstep batch of the
phase-1 simplex.  A feasible value is interior.  An infeasible value's duals
(g, g0) separate it from V: g.v + g0 <= 0 < g.q + g0.  The maximum of g.x
over the cloud then lies among the values still pending, and the last of
them in lexicographic order that attains it is a vertex; it joins V, so
every round adds at least one.  Rounds end when no value is pending.
Rounding can break a tie in g.x and admit a non-vertex, so a final batch
checks each uncertified member c of V against Conv(V without c) and drops
those inside.  A certified seed would have been admitted by the rounds and
kept by that check, and every other value meets the rounds and the check as
before, so the seeds spare rounds and LPs without changing the layers.
When the certified seeds are all 2^r corners of the values' bounding box (r
the rows that are not constant), the box is their hull and holds every value,
so they are exactly the vertices and the pass ends with no LP.  With more
than one varying row only sign vectors certify corners, so this holds only
for m <= 9, on saturated clouds such as vote lattices.
Every tableau and score matrix of this pass is processed in blocks of at
most ``_BLOCK_FLOATS`` floats, so its memory does not grow with the square
of the number of distinct values.

Duplicate columns keep their lowest index in ``h1`` and park the remaining
copies in ``h2``.  The *geometry* of the inner hull, however, is generated by
distinct column values that are not hull vertices: duplicate copies of a
vertex value do not drag the vertex into Conv(H2).  Without this rule the
inner hull of any vote matrix with repeated extreme columns would swallow the
outer hull and the safe region would vanish.  A cloud finds its distinct
values once (``ColumnCloud.groups``); the vertex pass, ``in_hull`` and the
label solve all read them.  The dedup sorts no columns: it ranks each row's
values against the row's sorted distinct values, folds the ranks into one
integer key per column whose order is the lexicographic one, and groups the
columns by key, through a table of the keys present when their range is
within a constant factor of the number of columns.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .backends import phase1_batch, phase1_simplex

__all__ = [
    "ColumnCloud",
    "HullDecomposition",
    "PivotBudgetError",
    "SafeRegionStatus",
    "build_A",
    "extreme_points",
    "in_hull",
    "hull_decompose",
    "safe_region_status",
]

HULL_TOL = 1e-8
_BLOCK_FLOATS = 1 << 18  # bound on each work array of the vertex pass (2 MB)
_COMPARE_RANKS = 16  # most values per row ranked by comparisons (measured crossover)

log = logging.getLogger("onionlabel.hull")


class PivotBudgetError(RuntimeError):
    """A phase-1 LP ran out of pivots before it reached an optimum.

    Its iterate says nothing about the geometry, so membership cannot be
    decided from it.
    """


def _budget_error(pivots: int, shape) -> PivotBudgetError:
    return PivotBudgetError(
        f"phase-1 simplex exhausted its pivot budget ({pivots} pivots) on "
        f"{shape[1]} columns in R^{shape[0]}"
    )


@dataclass(frozen=True)
class ColumnCloud:
    """Columns of the doubled signal matrix as points in R^m."""

    matrix: np.ndarray  # (m, p) float64, entries in [0, 2]

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("cloud matrix must be 2-d")
        if m.size == 0:
            raise ValueError("cloud must contain at least one column")
        if np.isnan(m).any():
            raise ValueError("cloud contains NaN")
        if m.min() < 0.0 or m.max() > 2.0:
            raise ValueError("cloud coordinates must lie in [0, 2]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_points(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def groups(self):
        """``_unique_columns(matrix)``, read-only, computed once per cloud."""
        groups = _unique_columns(self.matrix)
        for a in groups:
            a.setflags(write=False)
        return groups


def build_A(w) -> ColumnCloud:
    """Double a weak-signal matrix into its column cloud (entries in [0, 2])."""
    return ColumnCloud(matrix=2.0 * w.values)


@dataclass(frozen=True)
class HullDecomposition:
    """Index partition into hull vertices (h1) and the rest (h2).

    ``vertex_columns`` holds the distinct vertex values; ``interior_columns``
    holds the distinct non-vertex values, i.e. the generators of Conv(H2).
    Both are cached here so membership queries never recompute the hull.
    The ``vertex_*`` counts record the work of the vertex pass that found
    them (zero for a decomposition built by hand).
    """

    h1: np.ndarray  # sorted vertex indices, one per duplicate group
    h2: np.ndarray  # all remaining indices, sorted
    vertex_columns: np.ndarray = field(repr=False)  # (m, |V|)
    interior_columns: np.ndarray = field(repr=False)  # (m, |I|), may be empty
    vertex_lps: int = 0  # phase-1 LPs of the rounds and the uncertified self-checks
    vertex_pivots: int = 0
    vertex_rounds: int = 0  # Clarkson rounds after the certified seeds, before the self-check
    vertex_certified: int = 0  # vertices kept by a margin, with no self-check LP

    def __post_init__(self):
        for name in ("h1", "h2", "vertex_columns", "interior_columns"):
            a = np.ascontiguousarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)


class SafeRegionStatus(enum.Enum):
    INSIDE_H2 = "INSIDE_H2"
    SAFE = "SAFE"
    OUTSIDE_H1 = "OUTSIDE_H1"


def _unique_columns(matrix: np.ndarray):
    """Distinct column values, the lowest original index of each, and each
    column's position among the distinct values."""
    # the same triple as np.unique(matrix.T, axis=0), without sorting columns:
    # each row's dense value ranks (equal values such as -0.0 and 0.0 share
    # one) are folded, row 0 first, into a mixed-radix key whose order is the
    # lexicographic order of the columns.  A row of at most _COMPARE_RANKS
    # values counts, per entry, the values above the smallest that it reaches;
    # a longer row finds its ranks by binary search.  When the key range is
    # at most 4p + 1024, a table of the keys present, summed up to each key,
    # gives the groups with no sort, in memory a constant factor of the keys'.
    p = matrix.shape[1]
    key = np.zeros(p, dtype=np.int64)
    radix = 1  # exclusive bound on key
    for row in matrix:
        values = np.unique(row)
        if radix * values.size > 1 << 62:
            # re-rank the key densely, in order, so the next fold fits in int64
            uniq, key = np.unique(key, return_inverse=True)
            radix = uniq.size
        key *= values.size
        if values.size <= _COMPARE_RANKS:
            for v in values[1:]:
                key += row >= v
        else:
            key += np.searchsorted(values, row)
        radix *= values.size
    if radix <= 4 * p + 1024:
        present = np.zeros(radix, dtype=bool)
        present[key] = True
        index = np.cumsum(present, dtype=np.intp) - 1  # group of each present key
        group = index[key]
        n_groups = int(index[-1]) + 1
    else:
        uniq, group = np.unique(key, return_inverse=True)
        n_groups = uniq.size
    first = np.full(n_groups, p, dtype=np.intp)
    np.minimum.at(first, group, np.arange(p))
    return matrix[:, first], first, group


def convex_combination(columns: np.ndarray, q: np.ndarray):
    """Coefficients expressing q as a convex combination of the columns.

    Returns ``(lam, feasible)``; feasibility means the reconstruction error
    ``max(|columns @ lam - q|_inf, |sum(lam) - 1|, |min(lam, 0)|_1)`` is
    within ``HULL_TOL``.
    Raises PivotBudgetError when the phase-1 LP exhausts its pivot budget.
    """
    columns = np.asarray(columns, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if columns.ndim != 2 or q.shape != (columns.shape[0],):
        raise ValueError("query dimension does not match the column dimension")
    p = columns.shape[1]
    if p == 0:
        return np.zeros(0), False
    E = np.vstack([columns, np.ones((1, p))])
    lam, pivots, status = phase1_simplex(E, np.append(q, 1.0))
    if status == 1:
        raise _budget_error(pivots, columns.shape)
    return lam, bool(_fits(columns, lam[None], q[None])[0])


def _fits(V: np.ndarray, lam: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Whether each row of ``lam`` reproduces its row of ``Q`` from the
    columns of V within ``HULL_TOL``, in the infinity norm, sum row included,
    with at most ``HULL_TOL`` of negative weight in all.

    Each row's error is summed over that row alone, so a point's verdict does
    not depend on the batch it is tested in.
    """
    err = np.maximum(np.abs((lam[:, None, :] * V).sum(axis=2) - Q).max(axis=1),
                     np.abs(lam.sum(axis=1) - 1.0))
    return np.maximum(err, -np.minimum(lam, 0.0).sum(axis=1)) <= HULL_TOL


def in_hull(q, cloud: ColumnCloud) -> bool:
    """True iff q lies in the convex hull of the cloud columns (within HULL_TOL)."""
    return convex_combination(cloud.groups[0], q)[1]


def _membership(V: np.ndarray, Q: np.ndarray, drop=None):
    """One phase-1 LP per column of Q against the columns of V, in blocks.

    Returns ``(inside, duals, pivots)``: whether each column lies in Conv(V)
    (``_fits``, as in ``convex_combination``), each LP's duals
    and the pivot total.  With ``drop``, LP b leaves out column ``drop[b]``
    of V: a zero column never enters the basis.  Raises PivotBudgetError
    when any LP exhausts its pivot budget.
    """
    m, p = V.shape
    E = np.vstack([V, np.ones((1, p))])
    F = np.vstack([Q, np.ones((1, Q.shape[1]))]).T
    block = max(1, _BLOCK_FLOATS // ((m + 2) * (p + m + 2)))
    inside = np.empty(F.shape[0], dtype=bool)
    duals = np.empty(F.shape)
    pivots = 0
    for lo in range(0, F.shape[0], block):
        part = slice(lo, lo + block)
        E_part = E
        if drop is not None:
            lps = np.arange(drop[part].size)
            E_part = np.repeat(E[None], lps.size, axis=0)
            E_part[lps, :, drop[part]] = 0.0
        lam, piv, status, y = phase1_batch(E_part, F[part])
        duals[part] = y
        if status.any():
            raise _budget_error(int(piv[status == 1][0]), V.shape)
        inside[part] = _fits(V, lam, Q[:, part].T)
        pivots += int(piv.sum())
    return inside, duals, pivots


def _seed_directions(m: int, d: int):
    """The seed directions in blocks of at most ``_BLOCK_FLOATS`` scores over
    d columns: +e_i, -e_i, then the 2^m sign vectors while 2^m <= d and
    2^m <= m^3.  The second bound keeps their 2^m d scores within a small
    multiple of one round's cost, d LPs of about m pivots on (m + 2)^2
    entries, so the scores never grow with d^2."""
    rows = max(1, _BLOCK_FLOATS // max(m, d))
    for lo in range(0, m, rows):
        axes = np.eye(min(rows, m - lo), m, k=lo)
        yield axes
        yield -axes
    if 2**m <= min(d, m**3):
        for lo in range(0, 2**m, rows):
            codes = np.arange(lo, min(lo + rows, 2**m))
            yield 1.0 - 2.0 * ((codes[:, None] >> np.arange(m)) & 1)


def _vertex_pass(distinct: np.ndarray):
    """Directional seeds, then Clarkson rounds over the lexicographically
    sorted distinct columns.

    When the certified seeds are every corner of the distinct columns'
    bounding box, they are the vertex set and the pass runs no LP.

    Returns ``(is_vertex, lps, pivots, rounds, certified, box)``: which
    distinct columns are hull vertices, the LPs, pivots and rounds it took,
    how many vertices a margin certified without a self-check LP, and whether
    the box certificate settled the pass.
    """
    m, d = distinct.shape
    # Margin certificate.  Let c be the only maximizer of u.x over the cloud
    # for a direction u, by delta = u.c - max u.x over the other columns x.
    # On [0, 2]^m the values u.x lie in an interval of width 2 |u|_1 that
    # holds 0.  A fit in _fits of c by the others has |sum(lam) - 1| <= t,
    # negative weight |min(lam, 0)|_1 <= t and r = sum(lam_j x_j) with
    # |r - c|_inf <= t, t = HULL_TOL.  Then u.r <= sum(lam) max u.x + 2 t |u|_1
    # <= u.c - delta + 4 t |u|_1, while u.r >= u.c - t |u|_1; so delta >
    # 5 t |u|_1 leaves no fit, and neither a round nor the self-check can call
    # c inside: the rounds would admit it as a vertex and the final check keep
    # it.  Rounding in the scores and in _fits' sums over p <= d columns moves
    # this by at most (2m + 6p + 14) eps |u|_1 to first order; the slack is
    # four times a bound on that.  A maximizer with a smaller margin stays
    # pending: a column within HULL_TOL of it may fit it.
    bound = 5 * HULL_TOL + 64 * (m + d) * np.finfo(np.float64).eps
    certified = np.zeros(d, dtype=bool)
    for U in _seed_directions(m, d):
        scores = U @ distinct
        rows = np.arange(U.shape[0])
        top = d - 1 - np.argmax(scores[:, ::-1], axis=1)  # last maximum, as below
        best = scores[rows, top]
        scores[rows, top] = -np.inf
        margin = best - scores.max(axis=1)
        certified[top[margin > bound * np.abs(U).sum(axis=1)]] = True
    # Box certificate.  With low, high the row minima and maxima, a corner
    # has every coordinate at low_i or high_i.  When all 2^(rows with
    # low_i < high_i) corners are certified, their hull is the box, which
    # holds every column: each other column is an exact convex combination
    # of the corners (multilinear weights), so the rounds would call it
    # inside, and the certified corners would be admitted and kept.  No other
    # column can be certified, since every direction's maximum over the box
    # is attained at a corner, so the certified set is the vertex set, found
    # with no LP.
    low, high = distinct.min(axis=1), distinct.max(axis=1)
    corner = ((distinct == low[:, None]) | (distinct == high[:, None])).all(axis=0)
    if np.count_nonzero(certified & corner) == 2 ** np.count_nonzero(low < high):
        return certified, 0, 0, 0, int(certified.sum()), True
    is_vertex = certified.copy()
    is_vertex[-1] = True  # the lexicographic maximum is a vertex
    pending = np.flatnonzero(~is_vertex)
    lps = pivots = rounds = 0
    while pending.size:
        inside, duals, piv = _membership(distinct[:, is_vertex], distinct[:, pending])
        lps, pivots, rounds = lps + pending.size, pivots + piv, rounds + 1
        pending, g = pending[~inside], duals[~inside, :m]
        X = distinct[:, pending]
        rows = max(1, _BLOCK_FLOATS // max(1, pending.size))
        for lo in range(0, g.shape[0], rows):
            scores = g[lo : lo + rows] @ X
            # last maximum = lexicographic maximum: the columns are sorted
            is_vertex[pending[-1 - np.argmax(scores[:, ::-1], axis=1)]] = True
        pending = pending[~is_vertex[pending]]
    verts = np.flatnonzero(is_vertex)
    check = np.flatnonzero(~certified[verts])  # positions in verts
    if verts.size > 1 and check.size:
        V = distinct[:, verts]
        inside, _, piv = _membership(V, V[:, check], drop=check)
        lps, pivots = lps + check.size, pivots + piv
        is_vertex[verts[check[inside]]] = False
    return is_vertex, lps, pivots, rounds, int(certified.sum()), False


def extreme_points(cloud: ColumnCloud) -> np.ndarray:
    """Indices of the hull vertices, lowest index per duplicate group.

    A distinct column value is a vertex iff it is not a convex combination of
    the other distinct values.  Works in any dimension, including degenerate
    (collinear / coplanar) clouds.
    """
    return hull_decompose(cloud).h1


def hull_decompose(cloud: ColumnCloud) -> HullDecomposition:
    """Split columns into hull vertices (h1) and the interior rest (h2)."""
    distinct, first_idx, _ = cloud.groups
    is_vertex, lps, pivots, rounds, certified, box = _vertex_pass(distinct)
    h1 = np.sort(first_idx[is_vertex])
    log.debug("vertex pass: %d of %d distinct columns are vertices, %d certified, "
              "%d LPs in %d rounds, box certificate %s", h1.size, distinct.shape[1],
              certified, lps, rounds, "settled it" if box else "did not hold")
    rest = np.ones(cloud.n_points, dtype=bool)
    rest[h1] = False
    h2 = np.flatnonzero(rest).astype(np.int64, copy=False)
    return HullDecomposition(
        h1=h1,
        h2=h2,
        vertex_columns=cloud.matrix[:, h1],
        interior_columns=distinct[:, ~is_vertex],
        vertex_lps=lps,
        vertex_pivots=pivots,
        vertex_rounds=rounds,
        vertex_certified=certified,
    )


def safe_region_status(b, n: int, decomp: HullDecomposition,
                       cloud: ColumnCloud) -> SafeRegionStatus:
    """Classify b/n against the two hull layers.

    INSIDE_H2 when b/n lies in the inner hull (its boundary included), SAFE
    when it lies in Conv(H1) but not in the inner hull, OUTSIDE_H1 otherwise.
    An empty inner generator set can never contain b/n.
    """
    vec = np.asarray(getattr(b, "b", b), dtype=np.float64)
    q = vec / float(n)
    if q.shape != (cloud.dim,):
        raise ValueError(f"target must have dimension {cloud.dim}")
    if decomp.interior_columns.shape[1]:
        _, inside2 = convex_combination(decomp.interior_columns, q)
        if inside2:
            return SafeRegionStatus.INSIDE_H2
    _, inside1 = convex_combination(decomp.vertex_columns, q)
    if inside1:
        return SafeRegionStatus.SAFE
    return SafeRegionStatus.OUTSIDE_H1
