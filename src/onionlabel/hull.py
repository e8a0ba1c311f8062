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

Duplicate columns keep their lowest index in ``h1`` and park the remaining
copies in ``h2``.  The *geometry* of the inner hull, however, is generated by
distinct column values that are not hull vertices: duplicate copies of a
vertex value do not drag the vertex into Conv(H2).  Without this rule the
inner hull of any vote matrix with repeated extreme columns would swallow the
outer hull and the safe region would vanish.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .backends import phase1_simplex

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


class PivotBudgetError(RuntimeError):
    """A phase-1 LP ran out of pivots before it reached an optimum.

    Its iterate says nothing about the geometry, so membership cannot be
    decided from it.
    """


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


def build_A(w) -> ColumnCloud:
    """Double a weak-signal matrix into its column cloud (entries in [0, 2])."""
    return ColumnCloud(matrix=2.0 * w.values)


@dataclass(frozen=True)
class HullDecomposition:
    """Index partition into hull vertices (h1) and the rest (h2).

    ``vertex_columns`` holds the distinct vertex values; ``interior_columns``
    holds the distinct non-vertex values, i.e. the generators of Conv(H2).
    Both are cached here so membership queries never recompute the hull.
    """

    h1: np.ndarray  # sorted vertex indices, one per duplicate group
    h2: np.ndarray  # all remaining indices, sorted
    vertex_columns: np.ndarray = field(repr=False)  # (m, |V|)
    interior_columns: np.ndarray = field(repr=False)  # (m, |I|), may be empty

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
    # stable lexicographic sort, row 0 the primary key: the same order and the
    # same lowest index per group as np.unique(matrix.T, axis=0), much faster
    order = np.lexsort(matrix[::-1])
    ordered = matrix[:, order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return ordered[:, starts], order[starts], group


def convex_combination(columns: np.ndarray, q: np.ndarray):
    """Coefficients expressing q as a convex combination of the columns.

    Returns ``(lam, feasible)``; feasibility means the reconstruction error
    ``max(|columns @ lam - q|_inf, |sum(lam) - 1|)`` is within ``HULL_TOL``.
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
    f = np.append(q, 1.0)
    # sign-normalize rows so the artificial basis is feasible
    neg = f < 0
    E = E.copy()
    E[neg] *= -1.0
    f = np.abs(f)
    lam, pivots, status = phase1_simplex(E, f)
    if status == 1:
        raise PivotBudgetError(
            f"phase-1 simplex exhausted its pivot budget ({pivots} pivots) on "
            f"{p} columns in R^{columns.shape[0]}"
        )
    err = max(
        float(np.max(np.abs(columns @ lam - q))),
        abs(float(lam.sum()) - 1.0),
    )
    return lam, err <= HULL_TOL


def in_hull(q, cloud: ColumnCloud) -> bool:
    """True iff q lies in the convex hull of the cloud columns (within HULL_TOL)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (cloud.dim,):
        raise ValueError(f"query must have dimension {cloud.dim}")
    distinct, _, _ = _unique_columns(cloud.matrix)
    _, feasible = convex_combination(distinct, q)
    return feasible


def _vertex_mask(distinct: np.ndarray) -> np.ndarray:
    """True for each distinct column that is not a convex combination of the others."""
    d = distinct.shape[1]
    if d == 1:
        return np.ones(1, dtype=bool)
    keep = np.ones(d, dtype=bool)
    is_vertex = np.zeros(d, dtype=bool)
    for t in range(d):
        keep[t] = False
        _, feasible = convex_combination(distinct[:, keep], distinct[:, t])
        keep[t] = True
        is_vertex[t] = not feasible
    return is_vertex


def extreme_points(cloud: ColumnCloud) -> np.ndarray:
    """Indices of the hull vertices, lowest index per duplicate group.

    A distinct column value is a vertex iff it is not a convex combination of
    the other distinct values.  Works in any dimension, including degenerate
    (collinear / coplanar) clouds.
    """
    distinct, first_idx, _ = _unique_columns(cloud.matrix)
    return np.sort(first_idx[_vertex_mask(distinct)])


def hull_decompose(cloud: ColumnCloud) -> HullDecomposition:
    """Split columns into hull vertices (h1) and the interior rest (h2)."""
    distinct, first_idx, _ = _unique_columns(cloud.matrix)
    is_vertex = _vertex_mask(distinct)
    h1 = np.sort(first_idx[is_vertex])
    h2 = np.setdiff1d(np.arange(cloud.n_points, dtype=np.int64), h1)
    return HullDecomposition(
        h1=h1,
        h2=h2,
        vertex_columns=cloud.matrix[:, h1],
        interior_columns=distinct[:, ~is_vertex],
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
