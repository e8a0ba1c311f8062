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

The vertex pass runs over the distinct column values, which are in
lexicographic order.  The box certificate comes first: when all 2^r corners
of the values' bounding box are present (r the rows that are not constant)
and every other value lies farther than a margin from its nearest corner in
L1, the corners are exactly the vertices and the pass runs no LP.  This
settles saturated clouds such as vote lattices.  Otherwise Qhull (Barber,
Dobkin and Huhdanpaa, ACM TOMS 1996; ``scipy.spatial.ConvexHull``) proposes
the candidates: the values are centered and projected onto their affine hull
(its rank by SVD), and Qhull's vertices of the projected cloud are proposed
at rank 2 to 5, the two ends of the line at rank 1.  A value Qhull leaves
out is not fitted by an LP, but it is measured against Qhull's facets and
proposed too when it lies beyond one of them by more than HULL_TOL / 4.
With too few values for a simplex of the rank, or when Qhull fails, every
value is a candidate.  Last, one phase-1 LP per candidate
decides: in ascending order, a candidate that fits the candidates still kept
within HULL_TOL leaves at once, so of values that fit each other the
lexicographically last stays.  ``scipy.spatial`` is imported only when
Qhull runs.  The cloud lives in R^<=5: ``hull_decompose`` refuses a cloud of
more than ``MAX_CHUNKS`` rows before any LP, while grouping and membership
take any number of rows.

Duplicate columns keep their lowest index in ``h1`` and park the remaining
copies in ``h2``.  The *geometry* of the inner hull, however, is generated by
distinct column values that are not hull vertices: duplicate copies of a
vertex value do not drag the vertex into Conv(H2).  Without this rule the
inner hull of any vote matrix with repeated extreme columns would swallow the
outer hull and the safe region would vanish.  A cloud is its column groups
(``ColumnCloud``): the vertex pass, ``in_hull`` and the label solve read its
distinct values, and its m x nk matrix is built only when read.  The dedup
sorts no columns: it ranks each row's values against the row's sorted
distinct values, folds the ranks into one integer key per column whose order
is the lexicographic one, and groups the columns by key, through a table of
the keys present when their range is within a constant factor of the number
of columns.  A cloud of votes (``_vote_cloud``) is grouped from the integer
votes instead, since a column's value in a chunk is a function of the chunk's
votes for its class and its abstains: it folds each chunk's value ranks, read
from a small table of the chunk's means, into the same keys over the (class,
point group) pairs.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .backends import phase1_simplex
from .signals import MAX_CHUNKS, _chunk_bounds, _chunk_mean, _freeze

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
_RANK_TOL = 1e-12  # singular values at or below this times the largest are rank-deficient
_DISTANCE_FLOATS = 1 << 18  # most facet distances held at once
_COMPARE_RANKS = 16  # most values per row ranked by comparisons (measured crossover)
_CODE_TABLE = 1 << 16  # most codes of a chunk's votes in a table kept for all calls

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


def _check_cloud(m: np.ndarray, top: float = 2.0) -> None:
    """Raise on a cloud matrix that is not 2-d, empty, NaN or outside [0, top]."""
    if m.ndim != 2:
        raise ValueError("cloud matrix must be 2-d")
    if m.size == 0:
        raise ValueError("cloud must contain at least one column")
    if np.isnan(m).any():
        raise ValueError("cloud contains NaN")
    if m.min() < 0.0 or m.max() > top:
        raise ValueError(f"cloud coordinates must lie in [0, {top:g}]")


@dataclass(frozen=True, init=False)
class ColumnCloud:
    """Columns of the doubled signal matrix, entries in [0, 2], as points in
    R^m, held as their groups: ``_unique_columns(matrix)``, read-only.  Each
    group's size as float64 (``counts``) and ``matrix = distinct[:, group]``
    are built on first read; the caller's matrix is neither kept nor frozen."""

    groups: tuple  # (distinct (m, d), first (d,), group (p,))

    def __init__(self, matrix):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        _check_cloud(matrix)  # all of it: grouping ranks a NaN with its row's least value
        self._hold(*_unique_columns(matrix))

    @classmethod
    def _of_groups(cls, distinct, first, group) -> "ColumnCloud":
        """The cloud of ``(distinct, first, group)``; only distinct is checked."""
        _check_cloud(distinct)
        cloud = cls.__new__(cls)
        cloud._hold(distinct, first, group)
        return cloud

    def _hold(self, distinct, first, group):
        self.__dict__["groups"] = tuple(_freeze(a, owned=True) for a in (distinct, first, group))

    @property
    def dim(self) -> int:
        return self.groups[0].shape[0]

    @property
    def n_points(self) -> int:
        return self.groups[2].size

    @cached_property
    def counts(self):
        return _freeze(np.bincount(self.groups[2]).astype(np.float64), owned=True)

    @cached_property
    def matrix(self):
        distinct, _, group = self.groups
        return _freeze(np.take(distinct, group, axis=1), owned=True)  # C-contiguous


def build_A(w) -> ColumnCloud:
    """Double a weak-signal matrix into its column cloud (entries in [0, 2]):
    doubling is exact, so ``w.values``' groups, distinct columns doubled."""
    _check_cloud(w.values, top=1.0)
    distinct, first, group = _unique_columns(w.values)
    distinct *= 2.0  # a copy, laid out as a cloud matrix's groups
    return ColumnCloud._of_groups(distinct, first, group)


def _vote_cloud(votes: np.ndarray, k: int, chunks: int) -> ColumnCloud:
    """``build_A(reduce_signals(expand_pws(votes, k), chunks))`` with its
    groups counted from the (m, n) votes.

    A column's value in a chunk depends only on the chunk's votes for its
    class and its abstains.  Each chunk codes every point's votes in it and
    groups the codes by the ranks of their k class values
    (``_chunk_groups``).  The points are grouped by their group in every
    chunk, so a column is a (class, point group) pair, and the pairs' ranks
    fold into keys as ``_unique_columns`` folds a row's.
    """
    m, n = votes.shape
    key, radix, parts = np.zeros(n, dtype=np.int64), 1, []
    for lo, hi in _chunk_bounds(m, chunks):
        code, span = np.zeros(n, dtype=np.int64), 1
        for row in votes[lo:hi]:
            code, span = _fold(code, span, row, k + 1)
        if (k + 1) ** (hi - lo) <= min(n, _CODE_TABLE):  # every code, cached: no more than points
            values, ranks, chunk_group = _every_code_groups(hi - lo, k)
        else:  # the codes present, each by the votes of one point
            present, code = _dense_rank(code, span)
            point = np.empty(present.size, dtype=np.intp)
            point[code] = np.arange(n)
            values, ranks, chunk_group = _chunk_groups(hi - lo, k, votes[lo:hi, point])
        chunk_group = chunk_group[code]
        parts.append((values, ranks, chunk_group))
        key, radix = _fold(key, radix, chunk_group, ranks.shape[1])
    point, pattern = _key_groups(key, radix, np.arange(n))  # the point groups
    parts = [(values, np.take(ranks, chunk_group[point], axis=1).ravel())
             for values, ranks, chunk_group in parts]
    key, radix = np.zeros(k * point.size, dtype=np.int64), 1
    for values, ranks in parts:
        key, radix = _fold(key, radix, ranks, values.size)
    columns = (np.arange(k)[:, None] * n + point).ravel()  # lowest column of each pair
    first, pair_group = _key_groups(key, radix, columns)
    pair = first // n * point.size + pattern[first % n]
    distinct = np.empty((first.size, len(parts))).T  # laid out as _unique_columns' copy
    for row, (values, ranks) in zip(distinct, parts):
        row[:] = values[ranks[pair]]
    group = np.take(pair_group.reshape(k, point.size), pattern, axis=1).ravel()
    return ColumnCloud._of_groups(distinct, first, group)


def _chunk_groups(g: int, k: int, block: np.ndarray):
    """``(values, ranks, group)`` for a chunk of g signals over k classes.

    ``values`` are the chunk's doubled means in ascending order, from
    ``reduce_signals``' own mean and so bitwise its values.  ``block`` holds
    the chunk's votes of one point per code, (g, codes); ``group`` groups the
    codes by their class values, in the smallest unsigned dtype that holds
    them, and ``ranks`` (k, groups) holds each group's rank of the value of
    each class.
    """
    v, a = np.divmod(np.arange((g + 1) ** 2), g + 1)  # v votes for a class, a abstains
    t = np.arange(g)[:, None]  # each cell's g values, ascending; cells with v + a > g unread
    means = _chunk_mean(np.where(t < g - v - a, 0.0, np.where(t < g - v, 1.0 / k, 1.0)))
    values, rank = np.unique(2.0 * means, return_inverse=True)
    abstains = (block == 0).sum(axis=0)
    key, radix, ranks = np.zeros(block.shape[1], dtype=np.int64), 1, []
    for c in range(1, k + 1):
        ranks.append(rank[(block == c).sum(axis=0) * (g + 1) + abstains])
        key, radix = _fold(key, radix, ranks[-1], values.size)
    first, group = _key_groups(key, radix, np.arange(key.size))
    return values, np.stack(ranks)[:, first], group.astype(np.min_scalar_type(group.size))


@lru_cache(maxsize=16)
def _every_code_groups(g: int, k: int):
    """``_chunk_groups`` of every code, the radix-(k + 1) numbers of g digits,
    read-only."""
    block = np.arange((k + 1) ** g) // (k + 1) ** np.arange(g - 1, -1, -1)[:, None] % (k + 1)
    return tuple(_freeze(x, owned=True) for x in _chunk_groups(g, k, block))


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
    vertex_lps: int = 0  # phase-1 LPs of the self-check
    vertex_pivots: int = 0
    vertex_certified: int = 0  # box corners that settled the pass with no LP, else 0

    def __post_init__(self):
        for name in ("h1", "h2", "vertex_columns", "interior_columns"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


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
    # a longer row finds its ranks by binary search.
    p = matrix.shape[1]
    key = np.zeros(p, dtype=np.int64)
    radix = 1  # exclusive bound on key
    for row in matrix:
        values = np.unique(row)
        key, radix = _make_room(key, radix, values.size)
        key *= values.size
        if values.size <= _COMPARE_RANKS:
            for v in values[1:]:
                key += row >= v
        else:
            key += np.searchsorted(values, row)
        radix *= values.size
    first, group = _key_groups(key, radix, np.arange(p))
    return matrix[:, first], first, group


def _make_room(key: np.ndarray, radix: int, size: int):
    """``(key, radix)``, re-ranked densely and in order when folding in one
    more digit in [0, size) would pass 2^62."""
    if radix * size > 1 << 62:
        present, key = np.unique(key, return_inverse=True)
        radix = present.size
    return key, radix


def _fold(key: np.ndarray, radix: int, digit: np.ndarray, size: int):
    """Fold a digit in [0, size) into the mixed-radix key below ``radix``,
    in place when no re-rank is due; returns ``(key, radix)``."""
    key, radix = _make_room(key, radix, size)
    key *= size
    key += digit
    return key, radix * size


def _dense_rank(key: np.ndarray, radix: int):
    """The distinct keys in [0, radix), ascending, and each key's rank among
    them, as ``np.unique(key, return_inverse=True)`` gives them."""
    # when the key range is at most 4p + 1024, a table of the keys present,
    # summed up to each key, ranks them with no sort, in memory a constant
    # factor of the keys'
    if radix > 4 * key.size + 1024:
        return np.unique(key, return_inverse=True)
    present = np.zeros(radix, dtype=bool)
    present[key] = True
    return np.flatnonzero(present), (np.cumsum(present, dtype=np.intp) - 1)[key]


def _key_groups(key: np.ndarray, radix: int, index: np.ndarray):
    """Group equal keys in [0, radix): ``(first, group)``, each key's group
    numbered densely in key order and the least ``index`` in each group."""
    present, group = _dense_rank(key, radix)
    first = np.full(present.size, np.iinfo(np.intp).max, dtype=np.intp)
    np.minimum.at(first, group, index)
    return first, group


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
    lam, inside, _, _ = _combination(np.vstack([columns, np.ones((1, p))]), q)
    return lam, inside


def _combination(E: np.ndarray, q: np.ndarray):
    """One phase-1 LP of q against the columns V of ``E = [V; 1^T]``.

    Returns ``(lam, inside, duals, pivots)``, inside as ``_fits`` decides it.
    Raises PivotBudgetError when the LP exhausts its pivot budget.
    """
    lam, pivots, status, duals = phase1_simplex(E, np.append(q, 1.0))
    if status == 1:
        raise _budget_error(pivots, E[:-1].shape)
    return lam, _fits(E[:-1], lam, q), duals, pivots


def _fits(V: np.ndarray, lam: np.ndarray, q: np.ndarray) -> bool:
    """Whether ``lam`` reproduces q from the columns of V within ``HULL_TOL``,
    in the infinity norm, sum row included, with at most ``HULL_TOL`` of
    negative weight in all."""
    err = np.maximum(np.abs((lam * V).sum(axis=1) - q).max(), abs(lam.sum() - 1.0))
    return bool(np.maximum(err, -np.minimum(lam, 0.0).sum()) <= HULL_TOL)


def in_hull(q, cloud: ColumnCloud) -> bool:
    """True iff q lies in the convex hull of the cloud columns (within HULL_TOL)."""
    return convex_combination(cloud.groups[0], q)[1]


def _box_vertices(distinct: np.ndarray):
    """The corners of the distinct columns' bounding box when they settle the
    vertex pass: all 2^r of them are present (r the rows that are not
    constant) and each is farther than ``5 HULL_TOL m`` plus a rounding slack
    from every other column in L1.  Returns the corner mask, or None."""
    # Margin certificate.  For a corner c let u be the sign vector with u_i =
    # +1 where c_i is the row maximum, -1 where it is the minimum and 0 on a
    # constant row.  Over the box, u.c - u.x = |c - x|_1, so c beats every
    # other column in direction u by delta, its least L1 distance to one of
    # them: at least the least row width for another corner, and for a
    # non-corner x at least x's distance to its nearest corner,
    # sum_i min(x_i - low_i, high_i - x_i).  On [0, 2]^m the values u.x
    # lie in an interval of width 2 |u|_1 that holds 0.  A fit in _fits of c
    # by the others has |sum(lam) - 1| <= t, negative weight |min(lam, 0)|_1
    # <= t and r = sum(lam_j x_j) with |r - c|_inf <= t, t = HULL_TOL.  Then
    # u.r <= sum(lam) max u.x + 2 t |u|_1 <= u.c - delta + 4 t |u|_1, while
    # u.r >= u.c - t |u|_1; so delta > 5 t |u|_1 leaves no fit, and |u|_1 <= m.
    # Rounding in the distances and in _fits' sums over p <= d columns moves
    # this by at most (2m + 6p + 14) eps |u|_1 to first order; the slack is
    # four times a bound on that.  Every non-corner is an exact convex
    # combination of the corners (multilinear weights), so it fits them, and
    # the corners are exactly the vertices.
    m, d = distinct.shape
    low, high = distinct.min(axis=1), distinct.max(axis=1)
    corner = ((distinct == low[:, None]) | (distinct == high[:, None])).all(axis=0)
    varying = low < high
    if np.count_nonzero(corner) != 2 ** int(np.count_nonzero(varying)):
        return None
    bound = (5 * HULL_TOL + 64 * (m + d) * np.finfo(np.float64).eps) * m
    rest = distinct[:, ~corner]
    nearest = np.minimum(rest - low[:, None], high[:, None] - rest).sum(axis=0)
    if (nearest > bound).all() and ((high - low)[varying] > bound).all():
        return corner
    return None


def _proposed(distinct: np.ndarray):
    """The distinct columns that may be vertices, ascending, and the rank of
    their affine hull: ``(candidates, rank)``.

    The rank counts the singular values of the centered columns above
    ``_RANK_TOL`` times the largest; it is at least 1, since a cloud with one
    distinct column is settled by the box.  At rank 1 the candidates are the
    columns at either end of the line; at rank 2 to 5 they are the vertices
    Qhull finds for the columns projected onto their affine hull, and the
    columns it leaves out that lie beyond one of its facets.  Too few
    columns for a simplex of the rank (d <= rank + 1) or a ``QhullError``
    (logged at WARNING) propose every column, so a failed Qhull never yields
    a vertex set.
    """
    d = distinct.shape[1]
    everyone = np.arange(d)
    centered = distinct - distinct.mean(axis=1, keepdims=True)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    if d <= rank + 1:
        return everyone, rank
    Y = u[:, :rank].T @ centered  # the columns in coordinates of their affine hull
    if rank == 1:
        return np.flatnonzero((Y[0] == Y[0].min()) | (Y[0] == Y[0].max())), rank
    from scipy.spatial import ConvexHull, QhullError

    try:
        qhull = ConvexHull(Y.T, qhull_options="QbB Q12" + " Qx" * (rank == 5))
    except QhullError as err:
        log.warning("Qhull failed on %d columns of rank %d, so every column is "
                    "self-checked: %s", d, rank, str(err).strip().splitlines()[0])
        return everyone, rank
    # Q12 lets Qhull keep wide facets, so its roundoff bound no longer limits
    # how far outside the hull a column it leaves out may lie: one beyond a
    # facet by more than HULL_TOL / 4 is proposed too.  The equations are unit
    # normals for Y scaled by QbB to [-0.5, 0.5] per row, taken back here to
    # Y's coordinates.  Y is centered, so a column nearer its origin than
    # every facet plane is inside and skips the product.
    low, width = Y.min(axis=1), np.ptp(Y, axis=1)  # each > 0 along a principal axis
    normal = qhull.equations[:, :-1] / width
    scale = np.linalg.norm(normal, axis=1)
    offset = (qhull.equations[:, -1] - normal @ (low + width / 2)) / scale
    normal /= scale[:, None]
    proposed = np.zeros(d, dtype=bool)
    proposed[qhull.vertices] = True
    rest = np.flatnonzero(~proposed & (np.linalg.norm(Y, axis=0) >= -offset.max()))
    step = max(1, _DISTANCE_FLOATS // offset.size)  # columns per block
    for i in range(0, rest.size, step):
        block = rest[i:i + step]
        proposed[block] = (Y[:, block].T @ normal.T + offset).max(axis=1) > HULL_TOL / 4
    return np.flatnonzero(proposed), rank


def _self_check(distinct: np.ndarray, candidates: np.ndarray):
    """Each candidate, ascending, leaves at once when one phase-1 LP fits it
    to the candidates still kept within ``HULL_TOL``; so of columns that fit
    each other the lexicographically last stays.

    Returns ``(is_vertex, lps, pivots)``.  Raises PivotBudgetError when an LP
    exhausts its pivot budget.
    """
    C = distinct[:, candidates]
    kept = np.ones(candidates.size, dtype=bool)
    lps = pivots = 0
    for j in range(candidates.size):
        kept[j] = False
        V = C[:, kept]
        inside = False  # with no other candidate kept, nothing can fit it
        if V.shape[1]:
            _, inside, _, piv = _combination(np.vstack([V, np.ones((1, V.shape[1]))]), C[:, j])
            lps, pivots = lps + 1, pivots + piv
        kept[j] = not inside
    is_vertex = np.zeros(distinct.shape[1], dtype=bool)
    is_vertex[candidates[kept]] = True
    return is_vertex, lps, pivots


def extreme_points(cloud: ColumnCloud) -> np.ndarray:
    """Indices of the hull vertices, lowest index per duplicate group.

    A distinct column value is a vertex iff it is not a convex combination of
    the other distinct values.  Works on any cloud of at most ``MAX_CHUNKS``
    rows, including degenerate (collinear / coplanar) ones.
    """
    return hull_decompose(cloud).h1


def hull_decompose(cloud: ColumnCloud) -> HullDecomposition:
    """Split columns into hull vertices (h1) and the interior rest (h2).

    Raises ValueError on a cloud of more than ``MAX_CHUNKS`` rows."""
    if cloud.dim > MAX_CHUNKS:
        raise ValueError(f"the hull takes a cloud of at most {MAX_CHUNKS} rows, got "
                         f"{cloud.dim}: reduce the signals to at most {MAX_CHUNKS} chunks")
    distinct, first_idx, _ = cloud.groups
    d = distinct.shape[1]
    is_vertex = _box_vertices(distinct)
    certified = lps = pivots = 0
    if is_vertex is not None:
        certified = int(np.count_nonzero(is_vertex))
        log.debug("vertex pass: the box certificate settled it, %d of %d distinct "
                  "columns are its corners", certified, d)
    else:
        candidates, rank = _proposed(distinct)
        is_vertex, lps, pivots = _self_check(distinct, candidates)
        log.debug("vertex pass: %d of %d distinct columns are vertices, %d proposed at "
                  "rank %d, %d self-check LPs", np.count_nonzero(is_vertex), d,
                  candidates.size, rank, lps)
    vertex = np.flatnonzero(is_vertex)
    vertex = vertex[np.argsort(first_idx[vertex])]  # in h1 order
    h1 = first_idx[vertex]
    rest = np.ones(cloud.n_points, dtype=bool)
    rest[h1] = False
    h2 = np.flatnonzero(rest).astype(np.int64, copy=False)
    return HullDecomposition(
        h1=_freeze(h1, owned=True),
        h2=_freeze(h2, owned=True),
        vertex_columns=_freeze(np.take(distinct, vertex, axis=1), owned=True),  # C-contiguous
        interior_columns=_freeze(np.compress(~is_vertex, distinct, axis=1), owned=True),
        vertex_lps=lps,
        vertex_pivots=pivots,
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
