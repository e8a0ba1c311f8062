"""Column-cloud geometry: hull membership, vertex finding, layer status."""

from __future__ import annotations

import itertools
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from onionlabel import backends, hull
from onionlabel.hull import (
    ColumnCloud,
    HullDecomposition,
    PivotBudgetError,
    SafeRegionStatus,
    build_A,
    convex_combination,
    extreme_points,
    hull_decompose,
    in_hull,
    safe_region_status,
)
from onionlabel.signals import WeakSignalMatrix, expand_pws, reduce_signals
from onionlabel.solver import prepare
from onionlabel.synth import SynthSpec, generate_instance


def cloud_of(*cols) -> ColumnCloud:
    return ColumnCloud(np.array(cols, dtype=np.float64).T)


# ---------------------------------------------------------------------------
# ColumnCloud / build_A


def test_build_A_doubles_signal_values(table_signals):
    cloud = build_A(table_signals)
    np.testing.assert_allclose(cloud.matrix, 2.0 * table_signals.values)
    assert cloud.dim == table_signals.m
    assert cloud.n_points == table_signals.n * table_signals.k


def test_column_cloud_validates_range_and_shape():
    with pytest.raises(ValueError):
        ColumnCloud(np.array([[0.0, 2.1]]))
    with pytest.raises(ValueError):
        ColumnCloud(np.array([[-0.1, 1.0]]))
    with pytest.raises(ValueError):
        ColumnCloud(np.zeros(3))
    with pytest.raises(ValueError, match="cloud contains NaN"):
        ColumnCloud(np.array([[0.0, np.nan, 1.0]]))  # grouped with the 0.0 column
    a = np.array([[0.0, 2.0]])
    cloud = ColumnCloud(a)
    with pytest.raises(ValueError):
        cloud.matrix[0, 0] = 1.0  # read-only
    assert a.flags.writeable and cloud.matrix is not a  # neither frozen nor kept
    assert a.tolist() == [[0.0, 2.0]]


# ---------------------------------------------------------------------------
# convex_combination / in_hull


def test_convex_combination_midpoint():
    cols = np.array([[0.0, 2.0], [0.0, 2.0]])
    lam, ok = convex_combination(cols, np.array([1.0, 1.0]))
    assert ok
    np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(cols @ lam, [1.0, 1.0], atol=1e-9)


def test_convex_combination_outside_is_infeasible():
    cols = np.array([[0.0, 2.0], [0.0, 0.0]])
    _, ok = convex_combination(cols, np.array([1.0, 1.0]))
    assert not ok
    _, ok = convex_combination(cols, np.array([3.0, 0.0]))
    assert not ok


def test_convex_combination_single_and_empty():
    col = np.array([[1.5], [0.5]])
    lam, ok = convex_combination(col, np.array([1.5, 0.5]))
    assert ok and lam == pytest.approx([1.0])
    _, ok = convex_combination(col, np.array([1.5, 0.6]))
    assert not ok
    lam, ok = convex_combination(np.zeros((2, 0)), np.array([0.0, 0.0]))
    assert not ok and lam.size == 0


def test_convex_combination_shape_mismatch():
    with pytest.raises(ValueError):
        convex_combination(np.zeros((2, 3)), np.zeros(3))


def test_build_A_names_the_signal_range():
    # build_A checks signal values against [0, 1], before doubling them
    values = np.array([[0.0, 1.5, 1.0, 0.5]])
    w = WeakSignalMatrix(values=values, abstain=np.zeros(values.shape, bool), n=2, k=2)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]$"):
        build_A(w)
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\]$"):
        ColumnCloud(2.0 * values)


def _fit_cases():
    """(generators, queries): random clouds, and lattice clouds whose queries
    include points on the boundary of the generators' hull and points about
    HULL_TOL off it."""
    rng = np.random.default_rng(7)
    cases = []
    for m, p in ((2, 9), (4, 30)):
        V = rng.uniform(0.0, 2.0, size=(m, p))
        inside = V @ rng.dirichlet(np.ones(p), size=12).T
        cases.append((V, np.hstack([inside, V, rng.uniform(0.0, 2.0, size=(m, 12))])))
    for m in (3, 5):
        lattice = np.array(np.meshgrid(*[[0.0, 1.0, 2.0]] * m, indexing="ij")).reshape(m, -1)
        inner = lattice[:, (lattice == 1.0).any(axis=0)]  # all but the 2^m corners
        pts = lattice[:, ::4]
        Q = np.hstack([pts, 0.5 * (pts[:, :-1] + pts[:, 1:]), pts + 0.99e-8, pts + 1.01e-8])
        cases.append((inner, Q))
    return cases


@pytest.mark.parametrize("case", range(4))
def test_membership_verdict_does_not_depend_on_the_batch(case, monkeypatch):
    # each LP carries no state to the next: a query's lam, duals and verdict
    # are bitwise equal whether the queries are solved in order or in
    # reverse, and through phase1_simplex with _fits, _combination (the
    # anneal's probes and the self-check) or convex_combination, under
    # Dantzig's entering rule and under Bland's
    V, Q = _fit_cases()[case]
    E = np.vstack([V, np.ones((1, V.shape[1]))])
    for run in (backends._DEGENERATE_RUN, 0):
        monkeypatch.setattr(backends, "_DEGENERATE_RUN", run)
        alone = []
        for q in Q.T:
            lam, _, status, duals = backends.phase1_simplex(E, np.append(q, 1.0))
            assert status == 0
            alone.append((lam, hull._fits(V, lam, q), duals))
        verdicts = [inside for _, inside, _ in alone]
        assert any(verdicts) and not all(verdicts)
        for j in reversed(range(Q.shape[1])):
            lam, inside, duals, _ = hull._combination(E, Q[:, j])
            assert lam.tobytes() == alone[j][0].tobytes() and inside == alone[j][1]
            assert duals.tobytes() == alone[j][2].tobytes()
            lam, inside = convex_combination(V, Q[:, j])
            assert lam.tobytes() == alone[j][0].tobytes() and inside == alone[j][1]


def test_fits_allows_at_most_hull_tol_of_negative_weight():
    # each row reproduces 1.5 from 0, 1 and 2 with weights summing to 1; the
    # first and last lean on a negative weight beyond HULL_TOL
    V = np.array([[0.0, 1.0, 2.0]])
    lams = [[0.5, -0.5, 1.0], [-5e-9, 0.5 + 1e-8, 0.5 - 5e-9], [-2e-8, 0.5 + 4e-8, 0.5 - 2e-8]]
    assert [hull._fits(V, np.array(lam), np.array([1.5])) for lam in lams] == [False, True, False]


def test_convex_combination_raises_when_pivot_budget_runs_out(monkeypatch):
    # an exhausted LP must not be read as "infeasible", i.e. as a vertex
    def exhausted(E, f):
        return np.zeros(E.shape[1]), 7, 1, np.zeros(E.shape[0])

    monkeypatch.setattr(hull, "phase1_simplex", exhausted)
    cols = np.array([[0.0, 2.0], [0.0, 2.0]])
    with pytest.raises(PivotBudgetError, match="pivot budget"):
        convex_combination(cols, np.array([1.0, 1.0]))
    with pytest.raises(PivotBudgetError, match="pivot budget"):
        extreme_points(cloud_of([0, 0], [2, 0], [0, 2], [1, 1]))


def test_vertex_pass_raises_when_one_lp_in_a_batch_runs_out(monkeypatch):
    # one exhausted self-check LP among solved ones still fails the whole pass
    real = hull.phase1_simplex
    calls = []

    def second_exhausted(E, f):
        lam, pivots, status, duals = real(E, f)
        calls.append(f)
        return lam, pivots, int(len(calls) == 2), duals

    monkeypatch.setattr(hull, "phase1_simplex", second_exhausted)
    # the square's corner (2, 2) is missing, so the box certificate does not
    # hold and Qhull proposes the three other corners and (0.5, 1.5)
    cloud = cloud_of([0, 0], [2, 0], [0, 2], [1, 1], [0.5, 1.5])
    with pytest.raises(PivotBudgetError, match="pivot budget"):
        hull_decompose(cloud)
    assert len(calls) == 2


def test_in_hull_square():
    cloud = cloud_of([0, 0], [2, 0], [0, 2], [2, 2])
    assert in_hull([1.0, 1.0], cloud)
    assert in_hull([2.0, 2.0], cloud)  # boundary counts as inside
    assert not in_hull([2.0, 2.1], cloud)


# ---------------------------------------------------------------------------
# extreme_points


def test_extreme_points_square_plus_center():
    cloud = cloud_of([0, 0], [2, 0], [0, 2], [2, 2], [1, 1])
    assert extreme_points(cloud).tolist() == [0, 1, 2, 3]


def test_extreme_points_collinear_keeps_endpoints():
    cloud = cloud_of([0, 0], [1, 1], [2, 2])
    assert extreme_points(cloud).tolist() == [0, 2]
    # at rank 1 only the two ends are proposed, so only they are self-checked
    assert hull_decompose(cloud).vertex_lps == 2


def test_extreme_points_duplicate_vertex_keeps_lowest_index():
    cloud = cloud_of([2, 2], [0, 0], [2, 2], [0, 2], [2, 0])
    assert extreme_points(cloud).tolist() == [0, 1, 3, 4]


def test_extreme_points_degenerate_clouds():
    assert extreme_points(cloud_of([1, 1])).tolist() == [0]
    assert extreme_points(cloud_of([1, 1], [1, 1], [1, 1])).tolist() == [0]


def _planted_cloud(n, k, m, seed):
    spec = SynthSpec(n=n, k=k, m=m, signal_accuracy=0.8, abstain_rate=0.3, seed=seed)
    w, _ = generate_instance(spec)
    return build_A(reduce_signals(w, 5)).matrix


def _row_of(rng, count, p):
    """p entries in [0, 1) taking exactly ``count`` distinct values."""
    return rng.permutation(np.arange(p) % count) / count


def test_unique_columns_matches_np_unique():
    # lattice clouds with many duplicates, including rows whose order alone
    # separates columns, plus a single-column cloud
    rng = np.random.default_rng(8)
    clouds = [rng.integers(0, 5, size=(m, p)) * 0.5
              for m, p in [(1, 40), (2, 300), (3, 7), (5, 2000), (5, 1)]]
    clouds.append(np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]))
    # ~3,000 values per row: the product of the row radices passes 2**62
    # after six rows, so the key is re-ranked before the sixth fold.  Columns
    # 3000-3999 copy rows 0-4 of columns 0-999, so only the last row, folded
    # after the re-rank, tells them apart; the second half repeats columns.
    wide = rng.integers(0, 3000, size=(6, 6000)) / 1500.0
    wide[:5, 3000:4000] = wide[:5, :1000]
    wide = np.hstack([wide, wide[:, rng.integers(0, 6000, 6000)]])
    assert np.prod([np.unique(row).size for row in wide], dtype=object) > 2**62
    clouds.append(wide)
    # -0.0 and 0.0 are one value, and subnormals are distinct values
    tiny = np.array([-0.0, 0.0, 5e-324, 1e-320, 2.2e-308, 1.0])
    clouds.append(tiny[rng.integers(0, tiny.size, size=(4, 3000))])
    # rows of exactly 16 and 17 distinct values, on both sides of the switch
    # from comparison ranks to binary search, with -0.0 mixed into their 0.0
    few = np.stack([_row_of(rng, count, 2000) for count in (16, 17, 5)])
    zeros = few == 0.0
    zeros[:, ::2] = False
    few[zeros] = -0.0
    clouds.append(few)
    # key ranges (products of the row value counts) just inside and just
    # outside the presence table's bound 4p + 1024 = 5024 for p = 1000
    for counts in [(157, 32), (67, 75)]:
        clouds.append(np.stack([_row_of(rng, count, 1000) for count in counts]))
    assert [157 * 32, 67 * 75] == [4 * 1000 + 1024, 4 * 1000 + 1025]
    # the benchmark's solve-wide cloud (40,000 columns), a planted n=500,
    # k=2, m=10 cloud (key range 3,125 over 1,000 columns) and a planted
    # n=50k, k=3, m=10 cloud (150,000 columns)
    clouds.append(_planted_cloud(20000, 2, 5, seed=10))
    clouds.append(_planted_cloud(500, 2, 10, seed=0))
    clouds.append(_planted_cloud(50000, 3, 10, seed=0))
    for matrix in clouds:
        distinct, first_idx, group = hull._unique_columns(ColumnCloud(matrix).matrix)
        uniq, want_idx, want_group = np.unique(
            matrix.T, axis=0, return_index=True, return_inverse=True)
        assert (distinct.dtype, first_idx.dtype, group.dtype) == (
            uniq.dtype, want_idx.dtype, want_group.dtype)
        np.testing.assert_array_equal(distinct, uniq.T)
        np.testing.assert_array_equal(first_idx, want_idx)
        np.testing.assert_array_equal(group, want_group.ravel())
        # each distinct value is its lowest column's, bit for bit (sign of zero)
        assert distinct.tobytes() == matrix[:, want_idx].tobytes()


def test_cloud_dedups_once_for_all_hull_queries(dedup_calls):
    cloud = cloud_of([0, 0], [2, 0], [0, 2], [1, 1], [2, 0], [1, 1])
    decomp = hull_decompose(cloud)
    assert extreme_points(cloud).tolist() == decomp.h1.tolist() == [0, 1, 2]
    assert in_hull(np.array([0.5, 0.5]), cloud)
    assert len(dedup_calls) == 1
    distinct, first_idx, group = cloud.groups
    assert first_idx.tolist() == [0, 2, 3, 1] and group.tolist() == [0, 3, 1, 2, 3, 2]
    with pytest.raises(ValueError):
        distinct[0, 0] = 1.0  # read-only, like the matrix


def _highs_vertices(cloud: ColumnCloud) -> list[int]:
    """Vertex indices from one HiGHS feasibility LP per distinct column."""
    uniq, first_idx = np.unique(cloud.matrix.T, axis=0, return_index=True)
    distinct = uniq.T
    d = distinct.shape[1]
    keep = np.ones(d, dtype=bool)
    verts = []
    for t in range(d):
        keep[t] = False
        others = distinct[:, keep]
        keep[t] = True
        res = linprog(
            c=np.zeros(d - 1),
            A_eq=np.vstack([others, np.ones((1, d - 1))]),
            b_eq=np.append(distinct[:, t], 1.0),
            bounds=(0.0, None),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-8,
                     "dual_feasibility_tolerance": 1e-8},
        )
        inside = bool(res.success) and (
            float(np.max(np.abs(others @ res.x - distinct[:, t]))) <= 1e-7
        )
        if not inside:
            verts.append(int(first_idx[t]))
    return sorted(verts)


def test_hull_matches_highs_on_planted_n500_cloud(monkeypatch):
    # 685 distinct columns in R^5 with lattice degeneracy: under a pure
    # Bland's-rule simplex 10 of these LPs ran out of pivots and their points
    # were reported as vertices (170 instead of 164)
    spec = SynthSpec(n=500, k=2, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=0)
    w, _ = generate_instance(spec)
    cloud = build_A(reduce_signals(w, 5))
    statuses = []
    real = hull.phase1_simplex

    def recording(E, f):
        out = real(E, f)
        statuses.append(out[2])
        return out

    monkeypatch.setattr(hull, "phase1_simplex", recording)
    decomp = hull_decompose(cloud)
    assert len(statuses) >= 164
    assert set(statuses) == {0}
    assert decomp.vertex_lps == len(statuses)

    expected = _highs_vertices(cloud)
    assert len(expected) == 164
    assert extreme_points(cloud).tolist() == expected
    assert decomp.h1.tolist() == expected


# ---------------------------------------------------------------------------
# the vertex pass against the all-pairs reference


def _all_pairs_vertex_mask(distinct: np.ndarray) -> np.ndarray:
    """True for each distinct column that is not a convex combination of the others.

    One phase-1 LP per distinct column against all the others: the vertex
    finder that Qhull's proposal and the self-check replaced, kept as their
    reference.
    """
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


def _assert_matches_all_pairs(cloud: ColumnCloud):
    distinct, first_idx, _ = hull._unique_columns(cloud.matrix)
    is_vertex = _all_pairs_vertex_mask(distinct)
    h1 = np.sort(first_idx[is_vertex])
    h2 = np.setdiff1d(np.arange(cloud.n_points, dtype=np.int64), h1)
    decomp = hull_decompose(cloud)
    assert decomp.h1.tobytes() == h1.tobytes()
    assert decomp.h2.dtype == np.int64
    assert decomp.h2.tobytes() == h2.tobytes()
    assert decomp.interior_columns.tobytes() == distinct[:, ~is_vertex].tobytes()
    assert decomp.interior_columns.shape == (cloud.dim, int((~is_vertex).sum()))
    return decomp


@pytest.mark.parametrize("cols, h2", [
    ([[0, 0], [2, 0], [0, 2], [2, 2]], []),  # every column a vertex
    ([[1, 1]], []),  # one column
    ([[2, 2], [0, 0], [2, 2], [1, 1], [0, 2], [2, 0], [0, 0]], [2, 3, 6]),
])
def test_layers_match_all_pairs_on_edge_clouds(cols, h2):
    decomp = _assert_matches_all_pairs(cloud_of(*cols))
    assert decomp.h2.tolist() == h2


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vertex_pass_matches_all_pairs_on_planted_n500(k, seed):
    spec = SynthSpec(n=500, k=k, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=seed)
    w, _ = generate_instance(spec)
    decomp = _assert_matches_all_pairs(build_A(reduce_signals(w, 5)))
    # Qhull proposes every vertex and a few more; each proposed column is
    # self-checked, far fewer than one LP per distinct column
    assert decomp.vertex_certified == 0
    assert decomp.h1.size <= decomp.vertex_lps < decomp.h1.size + decomp.interior_columns.shape[1]


@pytest.mark.parametrize("seed", [10, 97])
def test_vertex_pass_matches_all_pairs_on_saturated_lattice(seed):
    # the benchmark's m=5 cloud: all 243 lattice points, 32 of them vertices.
    # The 32 are every corner of the bounding box, each other point lies a
    # clear margin from its nearest corner, so the box certificate settles
    # the pass: no Qhull, no LP
    spec = SynthSpec(n=5000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=seed)
    w, _ = generate_instance(spec)
    decomp = _assert_matches_all_pairs(build_A(reduce_signals(w, 5)))
    assert decomp.h1.size + decomp.interior_columns.shape[1] == 243
    assert (decomp.vertex_lps, decomp.vertex_certified) == (0, 32)


def _lattice(values, m):
    """Every point of values^m, as an (m, len(values)^m) matrix."""
    return np.array(np.meshgrid(*[values] * m, indexing="ij"), dtype=np.float64).reshape(m, -1)


@pytest.mark.parametrize("matrix", [
    *(_lattice([0.0, 1.0, 2.0], m) for m in (1, 2, 3, 4)),
    _lattice([0.0, 0.5, 1.0, 1.5, 2.0], 3),  # the half-step lattice
    # a constant row: the box is flat, with 2^(m - 1) = 8 corners
    np.insert(_lattice([0.0, 1.0, 2.0], 3), 1, 1.0, axis=0),
], ids=["m1", "m2", "m3", "m4", "half-step", "constant-row"])
def test_box_certificate_settles_full_lattices(matrix):
    decomp = _assert_matches_all_pairs(ColumnCloud(matrix))
    corners = 2 ** int(np.count_nonzero(np.ptp(matrix, axis=1)))
    assert decomp.h1.size == decomp.vertex_certified == corners
    assert (decomp.vertex_lps, decomp.vertex_pivots) == (0, 0)


@pytest.mark.parametrize("m", [2, 3])
def test_box_certificate_needs_every_corner_certified(m):
    lattice = _lattice([0.0, 1.0, 2.0], m)
    # the corner (2, ..., 2) removed: its neighbours become vertices
    decomp = _assert_matches_all_pairs(ColumnCloud(lattice[:, :-1]))
    assert decomp.vertex_lps > 0 and decomp.vertex_certified == 0
    assert decomp.h1.size == 2**m + m - 1
    # a copy of the origin moved 1e-10 along e_1 lies within the certificate's
    # bound of its nearest corner, so the self-check decides both
    near = np.zeros((m, 1))
    near[0] = 1e-10
    decomp = _assert_matches_all_pairs(ColumnCloud(np.hstack([lattice, near])))
    assert decomp.vertex_lps > 0 and decomp.vertex_certified == 0
    assert decomp.h1.size == 2**m
    # a corner and a row of width 1e-10: the two corners that differ only in
    # that row lie within the bound of each other
    thin = np.vstack([lattice, np.zeros((1, lattice.shape[1]))])
    thin[-1, -1] = 1e-10
    decomp = _assert_matches_all_pairs(ColumnCloud(thin))
    assert decomp.vertex_lps > 0 and decomp.vertex_certified == 0


def test_box_certificate_settles_planted_n300k():
    # at n=300k, k=2 the reduced cloud holds every lattice point: its 32
    # vertices are the columns whose coordinates are all row extremes
    matrix = _planted_cloud(300000, 2, 10, seed=0)
    cloud = ColumnCloud(matrix)
    distinct, first_idx, _ = cloud.groups
    corner = ((distinct == distinct.min(axis=1, keepdims=True))
              | (distinct == distinct.max(axis=1, keepdims=True))).all(axis=0)
    decomp = hull_decompose(cloud)
    assert decomp.h1.tolist() == np.sort(first_idx[corner]).tolist()
    assert decomp.h1.size == 32 and decomp.vertex_lps == 0
    assert decomp.interior_columns.tobytes() == distinct[:, ~corner].tobytes()


def test_hull_decomposition_copies_a_caller_array_and_never_freezes_it():
    given = {"h1": np.array([0, 1]), "h2": np.array([2]),
             "vertex_columns": np.array([[0.0, 2.0]]), "interior_columns": np.array([[1.0]])}
    decomp = HullDecomposition(**given)
    for name, a in given.items():
        kept = getattr(decomp, name)
        before = a.copy()
        assert a.flags.writeable and not kept.flags.writeable, name
        assert not np.shares_memory(a, kept), name
        a[...] = 0
        assert kept.tolist() == before.tolist(), name


def test_hull_refuses_a_cloud_above_five_rows(monkeypatch):
    # the cloud lives in R^<=5: 12 chunks give a 12-row cloud, which the
    # hull refuses by its row count before any LP and before it imports
    # scipy.spatial (a None in sys.modules makes that import raise)
    def no_lp(*args):
        raise AssertionError("no LP may run")

    monkeypatch.setattr(hull, "phase1_simplex", no_lp)
    monkeypatch.setitem(sys.modules, "scipy.spatial", None)
    spec = SynthSpec(n=150, k=2, m=12, signal_accuracy=0.8, abstain_rate=0.3, seed=3)
    w, _ = generate_instance(spec)
    for rows in (6, 12):
        cloud = build_A(reduce_signals(w, rows))
        assert cloud.dim == rows  # grouping takes any number of rows
        for decompose in (hull_decompose, extreme_points):
            with pytest.raises(ValueError, match=rf"at most 5 rows, got {rows}\b"):
                decompose(cloud)
        # prepare reads only chunks from its config, which SolverConfig caps at 5
        with pytest.raises(ValueError, match=rf"at most 5 rows, got {rows}\b"):
            prepare(w, SimpleNamespace(chunks=rows))


def test_self_check_drops_proposed_non_vertices(monkeypatch):
    # with every distinct column proposed, only the self-check can restore
    # the layers: it drops the non-vertices, and keeps the vertices
    calls = []

    def everyone(distinct):
        calls.append(distinct.shape[1])
        return np.arange(distinct.shape[1]), -1

    monkeypatch.setattr(hull, "_proposed", everyone)
    rng = np.random.default_rng(9)
    decomp = _assert_matches_all_pairs(ColumnCloud(rng.integers(0, 5, size=(3, 40)) * 0.5))
    assert calls and decomp.vertex_lps == calls[0]
    assert decomp.interior_columns.shape[1] >= 1


def test_near_duplicate_corner_stays_a_vertex():
    # (2, 1) and (2, 1 - 1e-10) each fit the other within HULL_TOL.  Dropping
    # both would lose the corner: the self-check tests the lexicographically
    # smaller first, and it leaves at once, so the larger stays
    decomp = hull_decompose(cloud_of([0, 0], [0, 2], [2, 1], [2, 1 - 1e-10]))
    assert decomp.h1.tolist() == [0, 1, 2]
    assert decomp.interior_columns.T.tolist() == [[2.0, 1 - 1e-10]]
    assert decomp.vertex_certified == 0
    assert hull_decompose(cloud_of([2, 1], [2, 1 - 1e-10])).h1.tolist() == [0]


def test_vertex_pass_debug_line_names_its_work(caplog):
    caplog.set_level("DEBUG", logger="onionlabel.hull")
    hull_decompose(cloud_of([0, 0], [2, 0], [0, 2], [2, 2], [1, 1]))
    hull_decompose(cloud_of([0, 0], [2, 0], [0, 2], [1, 1], [0.5, 0.5]))
    assert [r.getMessage() for r in caplog.records] == [
        "vertex pass: the box certificate settled it, 4 of 5 distinct columns are its corners",
        "vertex pass: 3 of 5 distinct columns are vertices, 3 proposed at rank 2, "
        "3 self-check LPs",
    ]


# a cloud in R^5 whose columns 0 and 1 differ by 1e-9 in two rows; HiGHS
# puts neither in the hull of columns 2-11
_NEAR_PAIR_R5 = np.array([
    [0, 0, 0, 0, 0, .5, .5, 1, 1, 1, 1.5, 1.5],
    [0, 0, 1, 1.5, 1.5, .5, 2, 1, 1.5, 2, 0, .5],
    [2, 2, 0, 0, 2, .5, .5, 1, 2, 1, 0, 1],
    [.5, .500000001, 2, 1, 1.5, 1, .5, .5, 1.5, 2, 1.5, 0],
    [.5, .499999999, .5, 1, 1, 0, 2, 1.5, 1.5, 2, 1, .5],
])


def test_near_duplicate_pair_in_r5_keeps_its_corner(monkeypatch, caplog):
    # the Clarkson pass this one replaced dropped both columns of the pair
    # and gave h1 = [2..11]; of the two that fit each other, the
    # lexicographically last stays
    import scipy.spatial
    from scipy.spatial import ConvexHull, QhullError

    points = []

    def recording(Y, qhull_options=None):
        points.append(Y)
        return ConvexHull(Y, qhull_options=qhull_options)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", recording)
    cloud = ColumnCloud(_NEAR_PAIR_R5)
    for t in (0, 1):
        res = linprog(np.zeros(10), A_eq=np.vstack([_NEAR_PAIR_R5[:, 2:], np.ones((1, 10))]),
                      b_eq=np.append(_NEAR_PAIR_R5[:, t], 1.0), bounds=(0.0, None),
                      method="highs")
        assert res.status == 2  # infeasible
    caplog.set_level("WARNING", logger="onionlabel.hull")
    assert hull_decompose(cloud).h1.tolist() == list(range(1, 12))
    # the cloud as the pass gives it to Qhull is a wide dupridge without Q12,
    # which Qhull then does not report
    assert len(points) == 1 and not caplog.records
    with pytest.raises(QhullError, match="QH6271"):
        ConvexHull(points[0], qhull_options="QbB Qx")


def test_qhull_error_self_checks_every_column(monkeypatch, caplog):
    import scipy.spatial

    def failing(points, qhull_options=None):
        raise scipy.spatial.QhullError("QH6999 qhull gave up")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", failing)
    caplog.set_level("WARNING", logger="onionlabel.hull")
    rng = np.random.default_rng(12)
    cloud = ColumnCloud(rng.integers(0, 5, size=(3, 40)) * 0.5)
    decomp = _assert_matches_all_pairs(cloud)
    assert decomp.vertex_lps == cloud.groups[0].shape[1]
    assert any("QH6999" in r.getMessage() and r.levelname == "WARNING" for r in caplog.records)


def test_a_column_beyond_qhulls_facets_is_self_checked(monkeypatch):
    # a Qhull that loses a vertex: its hull of the other columns leaves that
    # column beyond one of its facets, so the column is proposed all the same
    import scipy.spatial
    from scipy.spatial import ConvexHull

    lost = []

    def losing(Y, qhull_options=None):
        t = int(ConvexHull(Y).vertices.max())
        keep = np.delete(np.arange(len(Y)), t)
        # the equations in QbB's coordinates: each axis scaled to [-0.5, 0.5]
        scaled = (Y - Y.min(axis=0)) / np.ptp(Y, axis=0) - 0.5
        part = ConvexHull(scaled[keep])
        lost.append(t)
        return SimpleNamespace(vertices=keep[part.vertices], equations=part.equations)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", losing)
    rng = np.random.default_rng(12)
    cloud = ColumnCloud(rng.integers(0, 5, size=(3, 40)) * 0.5)
    candidates, rank = hull._proposed(cloud.groups[0])
    assert rank == 3 and len(lost) == 1 and lost[0] in candidates
    decomp = _assert_matches_all_pairs(cloud)
    assert cloud.groups[1][lost[0]] in decomp.h1


@pytest.mark.parametrize("step", [1e-13, 1e-11, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3])
def test_vertex_pass_on_near_degenerate_clouds(step):
    # lattice clouds whose inner coordinates move by +-step, and near pairs:
    # a copy of a column moved by step in one row.  Steps of 1e-7 and more
    # give the all-pairs layers bit for bit.  Within about HULL_TOL of the
    # hull either verdict is accepted (the band 1e-13 ... 1e-8): the pass
    # raises nothing, no kept vertex fits the other kept vertices, and every
    # distinct column fits the kept vertices
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        matrix = np.unique(rng.integers(0, 5, size=(m, int(rng.integers(m + 2, 30)))) * 0.5,
                           axis=1)
        inner = (matrix > 0.0) & (matrix < 2.0)
        matrix = matrix + inner * rng.choice([-step, step], size=matrix.shape)
        near = matrix[:, rng.integers(0, matrix.shape[1])].copy()
        row = rng.integers(0, m)
        near[row] += step if near[row] < 1.0 else -step
        cloud = ColumnCloud(np.hstack([matrix, near[:, None]]))
        if step >= 1e-7:
            _assert_matches_all_pairs(cloud)
            continue
        decomp = hull_decompose(cloud)
        V = decomp.vertex_columns
        for j in range(V.shape[1]):
            others = np.delete(V, j, axis=1)
            assert others.shape[1] == 0 or not convex_combination(others, V[:, j])[1]
        for q in cloud.groups[0].T:  # the vertices cover every column
            assert convex_combination(V, q)[1]


def test_box_settled_run_does_not_import_scipy_spatial():
    # Qhull is imported only when a cloud needs it: a run that the box
    # certificate settles pays nothing for it (a cold import of
    # scipy.spatial costs a multiple of such a run)
    code = (
        "import sys\n"
        "import onionlabel\n"
        "from onionlabel.synth import SynthSpec, generate_instance\n"
        "spec = SynthSpec(n=5000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=97)\n"
        "w, _ = generate_instance(spec)\n"
        "onionlabel.run_oua(w)\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"]


@st.composite
def degenerate_clouds(draw):
    """Small clouds with the degeneracies of vote lattices."""
    kind = draw(st.sampled_from(["lattice", "near-tie", "box", "collinear", "coplanar"]))
    dim = draw(st.integers(1, 4))
    p = draw(st.integers(1, 12))
    if kind in ("lattice", "near-tie", "box"):
        # a subset of the half-step lattice in [0, 2]^dim
        cells = st.integers(0, 4).map(lambda v: v * 0.5)
        cols = [draw(st.lists(cells, min_size=dim, max_size=dim)) for _ in range(p)]
        matrix = np.array(cols, dtype=np.float64).T
        if kind == "box":
            # every corner of the points' bounding box joins them, so the box
            # certificate can settle the pass
            lo, hi = matrix.min(axis=1), matrix.max(axis=1)
            bits = _lattice([0, 1], dim).astype(bool)
            matrix = np.hstack([matrix, np.where(bits, hi[:, None], lo[:, None])])
            p = matrix.shape[1]
        if kind == "near-tie":
            # distinct lattice points whose inner coordinates move by +-1e-12
            # ... 1e-6, so that seed margins fall on both sides of the
            # certificate's bound 3e-8 |u|_1.  Steps near HULL_TOL are left
            # out: they put points within about HULL_TOL of the others' hull,
            # where the verdict depends on the column set, all-pairs included;
            # so are coordinates near 0, where the simplex pivots on tiny entries
            matrix = np.unique(matrix, axis=1)
            step = draw(st.sampled_from([1e-12, 1e-11, 1e-10, 1e-6]))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            inner = (matrix > 0.0) & (matrix < 2.0)
            matrix = matrix + inner * rng.choice([-step, step], size=matrix.shape)
            p = matrix.shape[1]
    else:
        # points on a segment or in a plane through the cube
        rank = 1 if kind == "collinear" else 2
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        base = rng.uniform(0.5, 1.5, size=(dim, 1))
        span = rng.uniform(-0.125, 0.125, size=(dim, rank))
        steps = rng.integers(-2, 3, size=(rank, p)).astype(np.float64)
        matrix = base + span @ steps  # within 0.5 of base: inside [0, 2]
    dups = draw(st.lists(st.integers(0, p - 1), max_size=4))
    return ColumnCloud(np.hstack([matrix, matrix[:, dups]]))


@given(cloud=degenerate_clouds())
@settings(max_examples=60, deadline=None)
def test_property_vertex_pass_matches_all_pairs_on_degenerate_clouds(cloud):
    _assert_matches_all_pairs(cloud)


# ---------------------------------------------------------------------------
# hull_decompose


def test_hull_decompose_partition_and_interior_values():
    # square vertices, one duplicated vertex, one duplicated interior value
    cloud = cloud_of([0, 0], [2, 0], [0, 2], [2, 2], [2, 2], [1, 1], [1, 1], [0.5, 1])
    decomp = hull_decompose(cloud)
    assert decomp.h1.tolist() == [0, 1, 2, 3]
    assert decomp.h2.tolist() == [4, 5, 6, 7]
    assert sorted(decomp.h1.tolist() + decomp.h2.tolist()) == list(range(8))
    np.testing.assert_allclose(decomp.vertex_columns, cloud.matrix[:, [0, 1, 2, 3]])
    # the inner-hull generators are the distinct non-vertex VALUES: the
    # duplicate copy of (2,2) sits in h2 but contributes no generator
    got = {tuple(col) for col in decomp.interior_columns.T}
    assert got == {(1.0, 1.0), (0.5, 1.0)}


def test_hull_decompose_no_interior():
    decomp = hull_decompose(cloud_of([0, 0], [2, 0], [0, 2]))
    assert decomp.h1.tolist() == [0, 1, 2]
    assert decomp.h2.size == 0
    assert decomp.interior_columns.shape == (2, 0)


# ---------------------------------------------------------------------------
# safe_region_status


@pytest.fixture()
def layered_cloud():
    # outer square with an inner segment of non-vertex values
    return cloud_of([0, 0], [2, 0], [0, 2], [2, 2], [0.6, 0.6], [1.4, 1.4])


def test_status_inside_inner_hull(layered_cloud):
    decomp = hull_decompose(layered_cloud)
    st_ = safe_region_status(np.array([1.0, 1.0]), 1, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.INSIDE_H2


def test_status_inner_boundary_counts_inside(layered_cloud):
    decomp = hull_decompose(layered_cloud)
    st_ = safe_region_status(np.array([1.4, 1.4]), 1, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.INSIDE_H2


def test_status_safe_between_layers(layered_cloud):
    decomp = hull_decompose(layered_cloud)
    st_ = safe_region_status(np.array([1.8, 1.8]), 1, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.SAFE
    st_ = safe_region_status(np.array([0.2, 1.0]), 1, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.SAFE


def test_status_outer_boundary_is_safe(layered_cloud):
    decomp = hull_decompose(layered_cloud)
    st_ = safe_region_status(np.array([2.0, 2.0]), 1, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.SAFE


def test_status_outside(layered_cloud):
    decomp = hull_decompose(layered_cloud)
    st_ = safe_region_status(np.array([2.2, 1.0]), 1, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.OUTSIDE_H1


def test_status_scales_by_n(layered_cloud):
    decomp = hull_decompose(layered_cloud)
    st_ = safe_region_status(np.array([4.0, 4.0]), 4, decomp, layered_cloud)
    assert st_ is SafeRegionStatus.INSIDE_H2


def test_status_all_vertices_cannot_be_inside_h2():
    cloud = cloud_of([0, 0], [2, 0], [0, 2])
    decomp = hull_decompose(cloud)
    st_ = safe_region_status(np.array([0.5, 0.5]), 1, decomp, cloud)
    assert st_ is SafeRegionStatus.SAFE


def test_status_accepts_target_vector_wrapper(table_signals):
    from onionlabel.solver import epsilon_upper_bound, init_b

    cloud = build_A(table_signals)
    decomp = hull_decompose(cloud)
    tv = init_b(table_signals, epsilon_upper_bound(table_signals.k))
    st_tv = safe_region_status(tv, table_signals.n, decomp, cloud)
    st_raw = safe_region_status(tv.b, table_signals.n, decomp, cloud)
    assert st_tv is st_raw


# ---------------------------------------------------------------------------
# properties


@given(seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_property_convex_combinations_are_in_hull(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    p = int(rng.integers(2, 8))
    cloud = ColumnCloud(rng.uniform(0.0, 2.0, size=(d, p)))
    lam = rng.dirichlet(np.ones(p))
    assert in_hull(cloud.matrix @ lam, cloud)


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_property_appending_centroid_preserves_vertices(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    p = int(rng.integers(3, 8))
    mat = rng.uniform(0.0, 2.0, size=(d, p))
    base = extreme_points(ColumnCloud(mat))
    centroid = mat.mean(axis=1, keepdims=True)
    extended = extreme_points(ColumnCloud(np.hstack([mat, centroid])))
    assert extended.tolist() == base.tolist()


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_property_vertices_reconstruct_all_columns(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    p = int(rng.integers(2, 8))
    cloud = ColumnCloud(rng.uniform(0.0, 2.0, size=(d, p)))
    verts = extreme_points(cloud)
    vcols = cloud.matrix[:, verts]
    for t in range(p):
        _, ok = convex_combination(vcols, cloud.matrix[:, t])
        assert ok


def test_weak_matrix_cloud_roundtrip():
    values = np.array([[0.0, 0.25, 0.5, 1.0]])
    w = WeakSignalMatrix(values=values, abstain=np.zeros((1, 4), bool), n=2, k=2)
    cloud = build_A(w)
    assert cloud.matrix.max() <= 2.0
    assert extreme_points(cloud).tolist() == [0, 3]


# ---------------------------------------------------------------------------
# clouds grouped from votes


def random_votes(rng, m: int, n: int, k: int, abstain: float) -> np.ndarray:
    votes = rng.integers(1, k + 1, size=(m, n))
    votes[rng.random((m, n)) < abstain] = 0
    return votes


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, in dtype, shape and memory layout."""
    return (a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


def assert_same_decomposition(got, want):
    for name in ("h1", "h2", "vertex_columns", "interior_columns"):
        assert same_array(getattr(got, name), getattr(want, name)), name
    for name in ("vertex_lps", "vertex_pivots", "vertex_certified"):
        assert getattr(got, name) == getattr(want, name), name


def assert_vote_cloud_is_float_cloud(votes: np.ndarray, k: int, chunks: int, hull_too: bool):
    w = expand_pws(votes, k)
    got = hull._vote_cloud(w.votes, k, chunks)
    want = build_A(reduce_signals(w, chunks))
    for name, a, b in zip(("distinct", "first", "group"), got.groups, want.groups):
        assert same_array(a, b), name
    assert (got.dim, got.n_points) == (want.dim, want.n_points)
    if hull_too and got.dim <= 5:
        assert_same_decomposition(hull_decompose(got), hull_decompose(want))
    elif hull_too:  # the hull refuses both clouds by their row count
        for cloud in (got, want):
            with pytest.raises(ValueError, match=rf"at most 5 rows, got {got.dim}\b"):
                hull_decompose(cloud)
    assert same_array(got.matrix, want.matrix)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_vote_groups_equal_the_float_groups(k):
    # the groups counted from votes are the float matrix's bit for bit, at
    # every chunk size from 1 to 48 signals, with abstains from none to all;
    # so is the matrix rebuilt from them, and so are the hull layers
    rng = np.random.default_rng(k)
    for m, chunks, n, abstain in itertools.product(
            (1, 3, 5, 7, 10, 12, 23, 48), (1, 5, 9), (1, 50, 5000), (0.0, 0.4, 1.0)):
        votes = random_votes(rng, m, n, k, abstain)
        assert_vote_cloud_is_float_cloud(votes, k, chunks, hull_too=n <= 50 and chunks <= 5)


def test_vote_groups_rerank_a_code_past_int64(monkeypatch):
    # one chunk of 48 signals at k = 2 codes each point's votes in 3^48 > 2^62
    # values, so the fold re-ranks the codes on the way
    reranks = []
    make_room = hull._make_room

    def spy(key, radix, size):
        if radix * size > 1 << 62:
            reranks.append(radix)
        return make_room(key, radix, size)

    monkeypatch.setattr(hull, "_make_room", spy)
    votes = random_votes(np.random.default_rng(0), 48, 5000, 2, 0.4)
    assert_vote_cloud_is_float_cloud(votes, 2, 1, hull_too=False)
    assert reranks


@st.composite
def vote_instances(draw):
    k, m, n = draw(st.integers(2, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 40))
    votes = draw(st.lists(st.integers(0, k), min_size=m * n, max_size=m * n))
    return np.array(votes, dtype=np.int64).reshape(m, n), k, draw(st.integers(1, 9))


@given(instance=vote_instances())
@settings(max_examples=80, deadline=None)
def test_property_vote_groups_equal_the_float_groups(instance):
    votes, k, chunks = instance
    assert_vote_cloud_is_float_cloud(votes, k, chunks, hull_too=True)


def test_vote_cloud_validates_its_distinct_columns_only():
    cloud = hull._vote_cloud(np.array([[0, 1, 2, 2]]), 2, 5)
    assert "matrix" not in vars(cloud)  # nothing read it yet
    assert (cloud.dim, cloud.n_points) == (1, 8)
    assert cloud.groups[0].tolist() == [[0.0, 1.0, 2.0]]
    with pytest.raises(ValueError):
        cloud.groups[0][0, 0] = 1.0  # read-only, like a float cloud's groups
    with pytest.raises(ValueError):
        cloud.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="at least one column"):
        hull._vote_cloud(np.zeros((0, 3), dtype=np.int64), 2, 5)
