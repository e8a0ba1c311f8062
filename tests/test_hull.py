"""Column-cloud geometry: hull membership, vertex finding, layer status."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from onionlabel import hull
from onionlabel.hull import (
    ColumnCloud,
    PivotBudgetError,
    SafeRegionStatus,
    build_A,
    convex_combination,
    extreme_points,
    hull_decompose,
    in_hull,
    safe_region_status,
)
from onionlabel.signals import WeakSignalMatrix, reduce_signals
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
    cloud = ColumnCloud(np.array([[0.0, 2.0]]))
    with pytest.raises(ValueError):
        cloud.matrix[0, 0] = 1.0  # read-only


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


def test_convex_combination_raises_when_pivot_budget_runs_out(monkeypatch):
    # an exhausted LP must not be read as "infeasible", i.e. as a vertex
    def exhausted(E, f):
        return np.zeros(E.shape[1]), 7, 1

    monkeypatch.setattr(hull, "phase1_simplex", exhausted)
    cols = np.array([[0.0, 2.0], [0.0, 2.0]])
    with pytest.raises(PivotBudgetError, match="pivot budget"):
        convex_combination(cols, np.array([1.0, 1.0]))
    with pytest.raises(PivotBudgetError):
        extreme_points(cloud_of([0, 0], [2, 0], [0, 2], [1, 1]))


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


def test_extreme_points_duplicate_vertex_keeps_lowest_index():
    cloud = cloud_of([2, 2], [0, 0], [2, 2], [0, 2], [2, 0])
    assert extreme_points(cloud).tolist() == [0, 1, 3, 4]


def test_extreme_points_degenerate_clouds():
    assert extreme_points(cloud_of([1, 1])).tolist() == [0]
    assert extreme_points(cloud_of([1, 1], [1, 1], [1, 1])).tolist() == [0]


def test_unique_columns_matches_np_unique():
    # lattice clouds with many duplicates, including rows whose order alone
    # separates columns, plus a single-column cloud
    rng = np.random.default_rng(8)
    clouds = [rng.integers(0, 5, size=(m, p)) * 0.5
              for m, p in [(1, 40), (2, 300), (3, 7), (5, 2000), (5, 1)]]
    clouds.append(np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]))
    for matrix in clouds:
        distinct, first_idx, group = hull._unique_columns(ColumnCloud(matrix).matrix)
        uniq, want_idx, want_group = np.unique(
            matrix.T, axis=0, return_index=True, return_inverse=True)
        np.testing.assert_array_equal(distinct, uniq.T)
        np.testing.assert_array_equal(first_idx, want_idx)
        np.testing.assert_array_equal(group, want_group.ravel())


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

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        statuses.append(out[2])
        return out

    monkeypatch.setattr(hull, "phase1_simplex", recording)
    decomp = hull_decompose(cloud)
    assert len(statuses) >= 685
    assert set(statuses) == {0}

    expected = _highs_vertices(cloud)
    assert len(expected) == 164
    assert extreme_points(cloud).tolist() == expected
    assert decomp.h1.tolist() == expected


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
