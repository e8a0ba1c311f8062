"""Target construction, annealing, and the exact label solver."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel import backends, hull, solver
from onionlabel.cli import main
from onionlabel.hull import SafeRegionStatus, build_A, hull_decompose, safe_region_status
from onionlabel.metrics import majority_vote, weighted_majority_vote, accuracy
from onionlabel.signals import WeakSignalMatrix, expand_pws, reduce_signals
from onionlabel.solver import (
    AnnealingError,
    HullInconsistencyError,
    NotSafeAtZeroError,
    SolverConfig,
    SyntheticLabel,
    TargetVector,
    anneal_b,
    augment_system,
    decode_labels,
    epsilon_upper_bound,
    init_b,
    run_oua,
    solve_labels,
)
from onionlabel.synth import SynthSpec, generate_instance, run_ablation


def signals_from_columns(cols, n, k) -> WeakSignalMatrix:
    values = np.array(cols, dtype=np.float64).T
    return WeakSignalMatrix(
        values=values, abstain=np.zeros_like(values, dtype=bool), n=n, k=k
    )


# ---------------------------------------------------------------------------
# epsilon bound / init_b


def test_epsilon_upper_bound_values():
    assert epsilon_upper_bound(2) == 0.5
    assert epsilon_upper_bound(3) == pytest.approx(4 / 9)
    assert epsilon_upper_bound(4) == 0.375
    assert epsilon_upper_bound(5) == pytest.approx(0.32)
    with pytest.raises(ValueError):
        epsilon_upper_bound(1)


def test_init_b_worked_example(table_signals):
    # row sums: w1.1 = 37/6, so at eps = 4/9: b1 = -15*(4/9) + 37/6 + 5 = 4.5
    tv = init_b(table_signals, epsilon_upper_bound(3))
    assert tv.b[0] == pytest.approx(4.5, abs=1e-12)
    assert tv.epsilon == pytest.approx(4 / 9)


def test_init_b_rejects_out_of_range_eps(table_signals):
    with pytest.raises(ValueError):
        init_b(table_signals, -0.1)
    with pytest.raises(ValueError):
        init_b(table_signals, 0.6)  # > 4/9 for k=3


def test_init_b_rejects_a_nan_grouped_behind_another_column():
    # the NaN column ranks with the 0 column, so grouping alone would drop it
    w = WeakSignalMatrix(values=[[0.0, np.nan, 1.0, 1.0]], abstain=np.zeros((1, 4), bool),
                         n=2, k=2)
    with pytest.raises(ValueError, match="cloud contains NaN"):
        init_b(w, 0.1)
    with pytest.raises(ValueError, match="cloud coordinates"):
        init_b(WeakSignalMatrix(values=[[0.0, 1.5, 1.0, 1.0]], abstain=np.zeros((1, 4), bool),
                                n=2, k=2), 0.1)


@given(
    eps=st.floats(min_value=0.02, max_value=0.5),
    alpha=st.floats(min_value=0.001, max_value=0.01),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_anneal_step_raises_every_b_entry_by_nk_alpha(eps, alpha, seed):
    rng = np.random.default_rng(seed)
    n, k, m = 4, 2, 3
    values = rng.uniform(size=(m, n * k))
    w = WeakSignalMatrix(values=values, abstain=np.zeros((m, n * k), bool), n=n, k=k)
    lo, hi = init_b(w, eps - alpha), init_b(w, eps)
    np.testing.assert_allclose(lo.b - hi.b, n * k * alpha, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# annealing on frozen toy clouds (outer square, diagonal inner values)


def test_anneal_one_step_toy():
    # inner hull is the single value (1,1); b/n walks 2 - 2*eps down the diagonal
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.5, 0.5]], n=3, k=2
    )
    cloud = build_A(w)
    tv = anneal_b(w, cloud, hull_decompose(cloud), SolverConfig())
    assert tv.epsilon == pytest.approx(0.49, abs=1e-12)
    np.testing.assert_allclose(tv.b, [3.06, 3.06], atol=1e-12)


def test_anneal_multistep_toy_and_boundary_semantics():
    # inner segment [0.2, 1.8] on the diagonal: b/n = 2-2*eps exits strictly
    # beyond 1.8, i.e. at eps = 0.09 (the 1.8 boundary itself counts inside)
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [1, 1], [0.1, 0.1], [0.9, 0.9]], n=3, k=2
    )
    cloud = build_A(w)
    tv = anneal_b(w, cloud, hull_decompose(cloud), SolverConfig())
    assert tv.epsilon == pytest.approx(0.09, abs=1e-12)


def test_anneal_fine_grids_reach_the_boundary():
    # the multistep cloud's path exits beyond b/n = 1.8, i.e. below eps = 0.1.
    # Repeated subtraction of alpha 1e-17 from 0.5 never moves (it is below
    # half an ulp), and alpha 1e-5 takes 50,000 steps to get there.
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [1, 1], [0.1, 0.1], [0.9, 0.9]], n=3, k=2
    )
    cloud = build_A(w)
    decomp = hull_decompose(cloud)
    tv = anneal_b(w, cloud, decomp, SolverConfig(alpha=1e-5))
    assert tv.epsilon == pytest.approx(0.09999, abs=1e-12)
    # inside the hull tolerance band just below the boundary
    tv = anneal_b(w, cloud, decomp, SolverConfig(alpha=1e-17))
    assert 0.1 - 1e-8 < tv.epsilon < 0.1
    # the smallest alpha allowed: a grid of ~2.2e307 indices
    tv = anneal_b(w, cloud, decomp, SolverConfig(alpha=sys.float_info.min))
    assert 0.1 - 1e-8 < tv.epsilon < 0.1


def test_anneal_not_safe_at_zero():
    # the inner segment [0.1, 1.9] swallows the whole b/n path down to eps=0
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [1, 1],
         [0.05, 0.05], [0.05, 0.05], [0.05, 0.05], [0.95, 0.95]],
        n=4, k=2,
    )
    cloud = build_A(w)
    with pytest.raises(NotSafeAtZeroError):
        anneal_b(w, cloud, hull_decompose(cloud), SolverConfig(alpha=0.25))


def test_anneal_index_zero_settles_before_index_j(anneal_probes):
    # inner segment [1, 1.9] on the diagonal: b/n at eps = ub lies below it
    # (SAFE) while b/n at eps = 0 lies on it, so the run ends at index 0
    w = signals_from_columns(
        [[0, 0]] * 11 + [[1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.95, 0.95]], n=8, k=2
    )
    cloud = build_A(w)
    decomp = hull_decompose(cloud)
    ub = epsilon_upper_bound(w.k)
    assert safe_region_status(init_b(w, ub), w.n, decomp, cloud) is SafeRegionStatus.SAFE
    assert (safe_region_status(init_b(w, 0.0), w.n, decomp, cloud)
            is SafeRegionStatus.INSIDE_H2)
    q0 = float((init_b(w, ub).b / w.n).sum())
    for alpha in (0.25, 0.01):
        anneal_probes.clear()
        assert anneal_b(w, cloud, decomp, SolverConfig(alpha=alpha)).epsilon == ub
        assert anneal_probes == [(q0, False)]  # index J is never solved


def test_anneal_hull_inconsistency():
    # the inner segment ends on the outer boundary: the path exits Conv(H1)
    # the moment it leaves the inner hull
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0.25, 0.25], [0.25, 0.25]], n=3, k=2
    )
    cloud = build_A(w)
    with pytest.raises(HullInconsistencyError):
        anneal_b(w, cloud, hull_decompose(cloud), SolverConfig(alpha=0.2))


# ---------------------------------------------------------------------------
# anneal_b against the eps stepper it replaced


def _reference_anneal(w, cloud, decomp, cfg):
    """A walk over eps_j = max(0, ub - j alpha): one status check per index."""
    ub = epsilon_upper_bound(w.k)
    j = 0
    while True:
        eps = max(0.0, ub - j * cfg.alpha)
        tv = init_b(w, eps)
        status = safe_region_status(tv, w.n, decomp, cloud)
        if status is SafeRegionStatus.SAFE:
            return tv
        if status is SafeRegionStatus.OUTSIDE_H1:
            raise HullInconsistencyError(
                f"b/n fell outside Conv(H1) at eps={eps:.6f}; "
                "the annealing step overshot the safe shell"
            )
        if eps <= 0.0:
            raise NotSafeAtZeroError(
                "b/n is still inside the inner hull at eps=0; no safe target exists"
            )
        j += 1


def _anneal_outcome(anneal, w, cloud, decomp, cfg):
    try:
        tv = anneal(w, cloud, decomp, cfg)
    except AnnealingError as exc:
        return type(exc), str(exc)
    return "target", tv.epsilon, tv.b.tobytes()


def _reduced_instance(spec):
    w, _ = generate_instance(spec)
    w5 = reduce_signals(w)
    cloud = build_A(w5)
    return w5, cloud, hull_decompose(cloud)


# the toy clouds above, a perfect-signal cloud that is SAFE at index 0, and a
# cloud whose index 0 is SAFE although index J lies inside the inner hull
_TOY_CLOUDS = [
    ([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.5, 0.5]], 3),
    ([[0, 0], [1, 0], [0, 1], [1, 1], [0.1, 0.1], [0.9, 0.9]], 3),
    ([[0, 0], [1, 0], [0, 1], [1, 1],
      [0.05, 0.05], [0.05, 0.05], [0.05, 0.05], [0.95, 0.95]], 4),
    ([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0.25, 0.25], [0.25, 0.25]], 3),
    ([[0, 0]] * 11 + [[1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.95, 0.95]], 8),
]

_ANNEAL_CONFIGS = [SolverConfig(alpha=alpha) for alpha in (0.25, 0.2, 0.05, 0.01, 0.003, 0.0005)]


@pytest.fixture(scope="module")
def anneal_clouds():
    """Toy clouds, the 50-instance safe-region suite, planted n=500 seeds 0-2
    and the benchmark workloads' saturated m=5 lattice (243 points, 211 inner
    generators) at n=20000, seed 97."""
    clouds = []
    for cols, n in _TOY_CLOUDS:
        w = signals_from_columns(cols, n=n, k=2)
        cloud = build_A(w)
        clouds.append((w, cloud, hull_decompose(cloud)))
    clouds.append(_reduced_instance(SynthSpec(
        n=30, k=2, m=6, signal_accuracy=1.0, abstain_rate=0.0, seed=2)))
    for i in range(50):
        clouds.append(_reduced_instance(SynthSpec(
            n=100, k=2 + i % 2, m=10, signal_accuracy=0.8, abstain_rate=0.2,
            seed=1000 + i)))
    for seed in range(3):
        clouds.append(_reduced_instance(SynthSpec(
            n=500, k=2, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=seed)))
    clouds.append(_reduced_instance(SynthSpec(
        n=20000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=97)))
    return clouds


@pytest.mark.parametrize("cfg", _ANNEAL_CONFIGS, ids=lambda c: f"alpha{c.alpha}")
def test_anneal_matches_reference_stepper(anneal_clouds, cfg):
    # bitwise-equal eps and b, or the same exception type and message
    for w, cloud, decomp in anneal_clouds:
        want = _anneal_outcome(_reference_anneal, w, cloud, decomp, cfg)
        assert _anneal_outcome(anneal_b, w, cloud, decomp, cfg) == want


def test_anneal_reference_cases_cover_every_outcome(anneal_clouds):
    outcomes = set()
    safe_at_bound = False
    for cfg in _ANNEAL_CONFIGS:
        for w, cloud, decomp in anneal_clouds:
            got = _anneal_outcome(anneal_b, w, cloud, decomp, cfg)
            outcomes.add(got[0])
            safe_at_bound |= got[0] == "target" and got[1] == epsilon_upper_bound(w.k)
    assert outcomes == {"target", NotSafeAtZeroError, HullInconsistencyError}
    assert safe_at_bound


@pytest.fixture()
def anneal_probes(monkeypatch) -> list:
    """``(sum(q), inside)`` of each membership LP ``anneal_b`` solves, in
    order; sum(q) grows with the grid index."""
    probes: list = []
    real = solver._combination

    def counting(E, q):
        out = real(E, q)
        probes.append((float(q.sum()), out[1]))
        return out

    monkeypatch.setattr(solver, "_combination", counting)
    return probes


def test_anneal_probe_count_is_logarithmic(anneal_clouds, anneal_probes, caplog):
    # at most two rounds more than bisection's, of one to three LPs each
    # (summed over the rounds: the fixture sees LPs, the DEBUG line rounds)
    caplog.set_level("DEBUG", logger="onionlabel.solver")
    for cfg in (SolverConfig(alpha=0.0005), SolverConfig(alpha=0.003), SolverConfig(alpha=1e-9)):
        for w, cloud, decomp in anneal_clouds:
            grid_len = math.ceil(epsilon_upper_bound(w.k) / cfg.alpha) + 1
            anneal_probes.clear()
            _anneal_outcome(anneal_b, w, cloud, decomp, cfg)
            logged = re.search(r"(\d+) probes in (\d+) rounds", caplog.records[-1].getMessage())
            probes, rounds = int(logged[1]), int(logged[2])
            assert probes == len(anneal_probes)
            assert probes >= 1 or not decomp.interior_columns.shape[1]
            assert rounds <= math.ceil(math.log2(grid_len)) + 2
            assert rounds <= probes <= 3 * rounds


@pytest.mark.parametrize("alpha", [1e-17, sys.float_info.min])
def test_anneal_bisects_a_tolerance_band_of_many_indices(anneal_probes, alpha):
    # the multistep cloud's exit lies in the HULL_TOL band past the inner
    # segment's end, ~1e-8 / (2 alpha) indices wide: a prediction clipped up
    # to lo + 1 only walks that band, so the rounds bisect it with one LP.
    # Walking it as well took 107 and 2,040 LPs
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [1, 1], [0.1, 0.1], [0.9, 0.9]], n=3, k=2
    )
    cloud = build_A(w)
    tv = anneal_b(w, cloud, hull_decompose(cloud), SolverConfig(alpha=alpha))
    assert tv.epsilon == 0.0999999949999999
    grid_len = math.ceil(epsilon_upper_bound(w.k) / alpha) + 1
    assert 1 <= len(anneal_probes) <= math.ceil(math.log2(grid_len)) + 4


def test_anneal_brackets_the_workload_exit_in_few_lps(anneal_probes, caplog):
    # bisection took 11 probes and 16 LPs here; eps is the walk's, bit for bit
    w, cloud, decomp = _reduced_instance(SynthSpec(
        n=5000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=97))
    with caplog.at_level("DEBUG", logger="onionlabel.solver"):
        tv = anneal_b(w, cloud, decomp, SolverConfig(alpha=0.0005))
    assert tv.epsilon == 0.09949999999999998
    assert len(anneal_probes) == 4
    assert [r.getMessage() for r in caplog.records] == [
        "anneal: SAFE at eps=0.099500, grid index 801 of 1001, 4 probes in 2 rounds, 5 LPs"]


def test_anneal_solves_no_probe_past_the_first_outside(anneal_clouds, anneal_probes):
    # a round probes its picks in index order and stops at the first one
    # outside, so each probe lies strictly inside the bracket the earlier ones
    # left: above every inside probe and below every outside one.  Solving a
    # round's picks past an outside one, or index J after index 0, breaks
    # this on many of these clouds.  eps is the stepper's, bit for bit
    # (test_anneal_matches_reference_stepper)
    for cfg in _ANNEAL_CONFIGS + [SolverConfig(alpha=1e-9)]:
        for w, cloud, decomp in anneal_clouds:
            anneal_probes.clear()
            _anneal_outcome(anneal_b, w, cloud, decomp, cfg)
            lo, hi = -math.inf, math.inf
            for at, inside in anneal_probes:
                assert lo < at < hi
                lo, hi = (at, hi) if inside else (lo, at)


# ---------------------------------------------------------------------------
# augment_system


def test_augment_system_shapes(table_signals):
    cloud = build_A(table_signals)
    tv = init_b(table_signals, 0.3)
    a_aug, b_aug = augment_system(cloud, tv, table_signals.n)
    assert a_aug.shape == (cloud.dim + 1, cloud.n_points)
    np.testing.assert_allclose(a_aug[-1], 1.0)
    assert b_aug[-1] == table_signals.n
    np.testing.assert_allclose(b_aug[:-1], tv.b)


def test_augment_system_dimension_mismatch(table_signals):
    cloud = build_A(table_signals)
    bad = TargetVector(b=np.zeros(cloud.dim + 1), epsilon=0.1)
    with pytest.raises(ValueError):
        augment_system(cloud, bad, table_signals.n)


# ---------------------------------------------------------------------------
# solver config / diagnostics plumbing


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    # NaN passes a "<= 0" test: alpha=nan would make the grid length ceil(nan)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"alpha must be finite and at least \S+, got (nan|inf)"):
            SolverConfig(alpha=bad)
    # below the smallest normal float ub / alpha overflows to inf
    with pytest.raises(ValueError, match=r"alpha must be finite and at least 2\.2250738585072014e-308, "
                                         r"got 1e-310"):
        SolverConfig(alpha=1e-310)
    SolverConfig(alpha=sys.float_info.min)
    with pytest.raises(ValueError):
        SolverConfig(chunks=0)
    # counts and seeds are integers: a float would reach the chunk split or,
    # only after the hull and anneal, the generator
    for name, bad in (("chunks", math.nan), ("chunks", 2.0), ("chunks", 2.5), ("chunks", True),
                      ("chunks", -6), ("seed", -1), ("seed", 1.5), ("seed", None)):
        least = 0 if name == "seed" else 1
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= {least}, "
                                             rf"got {re.escape(repr(bad))}"):
            SolverConfig(**{name: bad})
    # the cloud lives in R^<=5: more chunks get their own message, naming the bound
    for bad in (6, np.int64(9), 10**20):
        with pytest.raises(ValueError, match=r"chunks must be at most 5, the most rows the hull "
                                             rf"takes, got {re.escape(repr(bad))}$"):
            SolverConfig(chunks=bad)
    assert SolverConfig(chunks=np.int8(5)).chunks == 5
    # alpha is a real number: True would anneal with alpha 1 and reach the
    # manifest as true, and a string is no step
    for bad in (True, False, np.True_, "0.1", None, 1j):
        with pytest.raises(ValueError, match=r"alpha must be finite and at least \S+, "
                                             rf"got {re.escape(repr(bad))}$"):
            SolverConfig(alpha=bad)
    assert SolverConfig(alpha=1).alpha == 1 and SolverConfig(alpha=np.float32(0.5)).alpha == 0.5
    cfg = SolverConfig(chunks=np.int32(3), seed=np.uint64(7))
    assert (cfg.chunks, cfg.seed) == (3, 7)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["alpha", "seed", "chunks"]


def test_synthetic_label_to_dict_maps_nan_epsilon_to_none():
    lbl = SyntheticLabel(
        soft=np.array([1.0, 0.0]),
        hard=np.array([1]),
        residual=0.0,
        epsilon_used=float("nan"),
        converged=True,
        iterations=1,
        initial_residual=1.0,
        n=1,
        k=2,
        gap=0.0,
    )
    doc = lbl.to_dict()
    assert doc["epsilon_used"] is None
    assert doc["gap"] == 0.0
    assert doc["mode"] == "safe_region"
    assert doc["hard"] == [1]


def test_target_and_label_copy_a_caller_array_and_never_freeze_it():
    given = {"b": np.array([1.0, 2.0]), "soft": np.array([1.0, 0.0]), "hard": np.array([1])}
    tv = TargetVector(b=given["b"], epsilon=0.1)
    lbl = SyntheticLabel(soft=given["soft"], hard=given["hard"], residual=0.0,
                         epsilon_used=0.1, converged=True, iterations=1,
                         initial_residual=1.0, n=1, k=2, gap=0.0)
    for name, kept in (("b", tv.b), ("soft", lbl.soft), ("hard", lbl.hard)):
        before = given[name].copy()
        assert given[name].flags.writeable and not kept.flags.writeable, name
        assert not np.shares_memory(given[name], kept), name
        given[name][...] = 0
        assert kept.tolist() == before.tolist(), name
    assert TargetVector(b=tv.b, epsilon=0.2).b is tv.b  # read-only: kept, not copied


# ---------------------------------------------------------------------------
# solve_labels


def test_solve_tiny_unique_optimum():
    # min (2 y1 - 2)^2 over {y in [0,1]^2, y1+y2 = 1} has the unique optimum (1, 0)
    a_aug = np.array([[2.0, 0.0], [1.0, 1.0]])
    b_aug = np.array([2.0, 1.0])
    lbl = solve_labels(a_aug, b_aug, SolverConfig(seed=5))
    np.testing.assert_allclose(lbl.soft, [1.0, 0.0], atol=1e-5)
    assert lbl.hard.tolist() == [1]
    assert lbl.residual <= 1e-5
    assert lbl.converged
    assert lbl.n == 1 and lbl.k == 2


def test_solve_box_sum_and_residual_monotonicity():
    rng = np.random.default_rng(21)
    n, k, m = 6, 3, 4
    a_aug = np.vstack([rng.uniform(0, 2, size=(m, n * k)), np.ones(n * k)])
    b_aug = np.concatenate([rng.uniform(0, 2 * n, size=m), [float(n)]])
    lbl = solve_labels(a_aug, b_aug, SolverConfig(seed=2))
    assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
    assert abs(lbl.soft.sum() - n) <= n * 1e-6
    assert lbl.residual <= lbl.initial_residual


def test_solve_reports_nonconvergence_honestly(monkeypatch):
    rng = np.random.default_rng(1)
    n, k, m = 10, 2, 3
    a_aug = np.vstack([rng.uniform(0, 2, size=(m, n * k)), np.ones(n * k)])
    b_aug = np.concatenate([rng.uniform(0, 2 * n, size=m), [float(n)]])
    monkeypatch.setattr(backends, "MAX_CYCLES", 2)
    lbl = solve_labels(a_aug, b_aug, SolverConfig())
    assert not lbl.converged
    assert lbl.iterations == 2
    # the feasibility contract still holds
    assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
    assert abs(lbl.soft.sum() - n) <= n * 1e-6


def test_solve_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="shapes are inconsistent"):
        solve_labels(np.ones((2, 4)), np.ones(3))
    with pytest.raises(ValueError):
        solve_labels(np.ones((2, 4)), np.array([1.0, 0.0]))  # sum row n=0
    with pytest.raises(ValueError):
        solve_labels(np.ones((2, 4)), np.array([1.0, 3.0]))  # 3 does not divide 4
    # the sum row must carry a positive integer n, not a value rounded to one
    for n, shown in ((math.inf, "inf"), (math.nan, "nan"), (2.4, "2.4"), (-2.0, "-2.0")):
        with pytest.raises(ValueError, match=rf"positive integer n with n \| nk, got {shown}$"):
            solve_labels(np.ones((2, 4)), np.array([1.0, n]))
    a_aug = np.array([[2.0, 0.0], [1.0, 1.0]])
    # a NaN in b ran the Newton loop to its budget with gap nan: 33-35 s for
    # 50 iterations on a planted n=2000, k=2, m=5 system
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^a_aug must be finite$"):
            solve_labels(np.array([[2.0, bad], [1.0, 1.0]]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="^b_aug must be finite$"):
            solve_labels(a_aug, np.array([bad, 1.0]))


# ---------------------------------------------------------------------------
# decode_labels


def test_decode_layout_and_ties():
    # class blocks are contiguous: soft[(c-1)*n + j]
    soft = np.array([0.2, 0.9, 0.8, 0.1])  # n=2, k=2
    assert decode_labels(soft, 2, 2).tolist() == [2, 1]
    # exact tie goes to the lowest class
    assert decode_labels(np.array([0.5, 0.5]), 1, 2).tolist() == [1]
    with pytest.raises(ValueError):
        decode_labels(np.zeros(5), 2, 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_block_argmax_is_argmax_with_ties_to_the_lowest_class(k):
    rng = np.random.default_rng(k)
    for scores in (rng.uniform(size=(k, 500)),
                   rng.integers(0, 3, size=(k, 500)).astype(float),  # many ties
                   np.zeros((k, 7))):
        want = scores.argmax(axis=0) + 1
        got = solver._block_argmax(scores)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert decode_labels(scores.ravel(), scores.shape[1], k).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# run_oua end to end


PIPELINE_SPECS = [
    # duplicate-heavy: the m=5 cloud saturates at its 243 lattice points
    SynthSpec(n=5000, k=2, m=5, signal_accuracy=0.8, abstain_rate=0.3, seed=0),
    SynthSpec(n=2000, k=3, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=0),
]
LABEL_FIELDS = ("soft", "hard", "residual", "gap", "iterations", "epsilon_used")


def _assert_same_label(got, want):
    for name in LABEL_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@pytest.mark.parametrize("spec", PIPELINE_SPECS, ids=lambda s: f"n{s.n}-k{s.k}-m{s.m}")
def test_pipelines_equal_their_step_by_step_chains(spec):
    # the public stages, chained by hand through an explicit augmented system,
    # must give run_oua's and run_ablation's labels bit for bit
    w, _ = generate_instance(spec)
    cfg = SolverConfig(seed=3)
    w_red = reduce_signals(w, cfg.chunks)
    cloud = build_A(w_red)
    decomp = hull_decompose(cloud)
    tv = anneal_b(w_red, cloud, decomp, cfg)
    chain = solve_labels(*augment_system(cloud, tv, w.n), cfg, epsilon_used=tv.epsilon)
    _assert_same_label(run_oua(w, cfg), chain)

    tv = init_b(w_red, epsilon_upper_bound(w.k))
    chain = solve_labels(*augment_system(cloud, tv, w.n), cfg, epsilon_used=tv.epsilon)
    ablation = run_ablation(w, cfg)
    _assert_same_label(ablation, chain)
    assert ablation.mode == "ablation" and chain.mode == "safe_region"


def _without_votes(w: WeakSignalMatrix) -> WeakSignalMatrix:
    """The same signals as a matrix that keeps no votes, so the float path runs."""
    return WeakSignalMatrix(values=w.values, abstain=w.abstain, n=w.n, k=w.k)


def _outcome(run, w, cfg):
    """``run(w, cfg)``'s label fields as bytes, or its exception's type and text."""
    try:
        label = run(w, cfg)
    except AnnealingError as exc:
        return type(exc).__name__, str(exc)
    return tuple(np.asarray(getattr(label, name)).tobytes()
                 for name in LABEL_FIELDS + ("converged", "initial_residual", "mode"))


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_vote_input_runs_bitwise_as_the_float_path(k):
    # run_oua and run_ablation on a matrix with votes (grouped from them) and
    # on the same signals without votes (grouped from the float matrix) agree
    # bit for bit, failures included; chunks of 9 signals, which the hull
    # refuses, are left to the groups' own grid in test_hull.py
    rng = np.random.default_rng(100 + k)
    for m, chunks, n, abstain in itertools.product(
            (1, 3, 5, 7, 10, 12, 23, 48), (1, 5), (1, 50), (0.0, 0.4, 1.0)):
        votes = rng.integers(1, k + 1, size=(m, n))
        votes[rng.random((m, n)) < abstain] = 0
        w = expand_pws(votes, k)
        cfg = SolverConfig(chunks=chunks, seed=m)
        for run in (run_oua, run_ablation):
            assert _outcome(run, w, cfg) == _outcome(run, _without_votes(w), cfg), \
                (run.__name__, m, chunks, n, abstain)


@pytest.mark.parametrize("spec", PIPELINE_SPECS + [
    SynthSpec(n=5000, k=2, m=48, signal_accuracy=0.6, abstain_rate=0.4, seed=1),
], ids=lambda s: f"n{s.n}-k{s.k}-m{s.m}")
@pytest.mark.parametrize("chunks", [1, 5])
def test_planted_vote_input_runs_bitwise_as_the_float_path(spec, chunks):
    # at m = 48, k = 2 and one chunk the vote codes are re-ranked past int64
    w, _ = generate_instance(spec)
    cfg = SolverConfig(chunks=chunks)
    for run in (run_oua, run_ablation):
        assert _outcome(run, w, cfg) == _outcome(run, _without_votes(w), cfg), run.__name__


def test_vote_input_never_builds_the_cloud_matrix(monkeypatch, dedup_calls):
    # no run reads an (m, nk) cloud matrix, on vote or float input; the
    # columns are grouped once per run, from the votes or the reduced floats
    def unread(cloud):
        raise AssertionError("the cloud built its (m, nk) matrix")

    monkeypatch.setattr(hull.ColumnCloud, "matrix", property(unread))
    w, _ = generate_instance(PIPELINE_SPECS[1])
    for run in (run_oua, run_ablation):
        run(w, SolverConfig())
        run(_without_votes(w), SolverConfig())
    reduced = (SolverConfig().chunks, w.n * w.k)
    assert dedup_calls == [w.votes.shape, reduced] * 2


def test_one_group_count_per_pipeline_run(monkeypatch):
    # each run counts its cloud's groups once, and the anneal and the solve
    # read those counts
    counts = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        if weights is None:
            counts.append(x.size)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    w, _ = generate_instance(PIPELINE_SPECS[1])
    for run in (run_oua, run_ablation):
        for x in (w, _without_votes(w)):
            counts.clear()
            run(x, SolverConfig())
            assert counts == [w.n * w.k], run.__name__


def test_vote_input_is_never_reduced_as_floats(monkeypatch, tmp_path, capsys):
    # run_oua, run_ablation and inspect-hull group a matrix that keeps its
    # votes from them, and read the target's row sums from that cloud
    def reduce_floats(w, chunks):
        if w.votes is not None:
            raise AssertionError("a matrix with votes was reduced as floats")
        return reduce_signals(w, chunks)

    monkeypatch.setattr(solver, "reduce_signals", reduce_floats)
    w, _ = generate_instance(PIPELINE_SPECS[1])
    run_oua(w, SolverConfig())
    run_ablation(w, SolverConfig())
    prefix = tmp_path / "inst"
    assert main(["synth", "--n", "300", "--k", "3", "--m", "10", "--accuracy", "0.8",
                 "--abstain", "0.3", "--out-prefix", str(prefix)]) == 0
    assert main(["inspect-hull", "--weak-labels", f"{prefix}.csv", "--n", "300",
                 "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["h1_size"] >= 1


def test_anneal_reads_its_row_sums_from_the_cloud():
    # the unreduced matrix (m = 10 > chunks) and its reduced signals give the
    # same target: only n and k are taken from the matrix
    w, _ = generate_instance(SynthSpec(n=500, k=3, m=10, signal_accuracy=0.8,
                                       abstain_rate=0.3, seed=0))
    cfg = SolverConfig()
    cloud, decomp = solver.prepare(w, cfg)
    want = _anneal_outcome(anneal_b, reduce_signals(w), cloud, decomp, cfg)
    assert want[0] == "target"
    assert _anneal_outcome(anneal_b, w, cloud, decomp, cfg) == want


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cloud_row_sums_are_the_reduced_matrix_row_sums(k):
    # each distinct column times its count, halved, against the float sum
    # over all nk columns, for clouds grouped from votes and from float
    # matrices
    rng = np.random.default_rng(k)
    for m, chunks in itertools.product((1, 5, 10, 15), (1, 5, 9)):
        votes = rng.integers(0, k + 1, size=(m, 200))
        w = expand_pws(votes, k)
        soft = rng.dirichlet(np.ones(k), size=(m, 200)).transpose(0, 2, 1).reshape(m, -1)
        soft[:, :50] = soft[:, 50:100]  # repeated columns
        soft = signals_from_columns(soft.T, n=200, k=k)
        cases = [(w, hull._vote_cloud(votes, k, chunks)),
                 (w, build_A(reduce_signals(_without_votes(w), chunks))),
                 (soft, build_A(reduce_signals(soft, chunks)))]
        for signals, cloud in cases:
            want = reduce_signals(signals, chunks).values.sum(axis=1)
            np.testing.assert_allclose(solver._row_sums(cloud), want, rtol=1e-13, atol=0.0,
                                       err_msg=f"m={m} chunks={chunks}")


def _matrix_row_sum_walk_eps(w, cloud, decomp, cfg):
    """eps of the walk over eps_j = max(0, ub - j alpha) whose targets take
    their row sums from the reduced float matrix, not from the cloud."""
    row_sums = reduce_signals(w, cfg.chunks).values.sum(axis=1)
    ub = epsilon_upper_bound(w.k)
    j = 0
    while True:
        eps = max(0.0, ub - j * cfg.alpha)
        b = -w.n * w.k * eps + row_sums + w.n
        status = safe_region_status(b, w.n, decomp, cloud)
        if status is not SafeRegionStatus.INSIDE_H2 or eps <= 0.0:
            return eps, status
        j += 1


@pytest.mark.parametrize("spec", [
    SynthSpec(n=500, k=2, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=seed)
    for seed in range(5)
] + [
    SynthSpec(n=500, k=3, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=seed)
    for seed in range(3)
] + PIPELINE_SPECS, ids=lambda s: f"n{s.n}-k{s.k}-m{s.m}-s{s.seed}")
def test_run_oua_eps_is_the_walk_on_matrix_row_sums(spec):
    w, _ = generate_instance(spec)
    cfg = SolverConfig(seed=spec.seed)
    cloud, decomp = solver.prepare(w, cfg)
    eps, status = _matrix_row_sum_walk_eps(w, cloud, decomp, cfg)
    assert status is SafeRegionStatus.SAFE
    assert run_oua(w, cfg).epsilon_used == eps


def test_prepare_matches_the_stages():
    w, _ = generate_instance(PIPELINE_SPECS[1])
    cfg = SolverConfig(chunks=4)
    cloud, decomp = solver.prepare(w, cfg)
    assert cloud.dim == 4
    np.testing.assert_array_equal(cloud.matrix, build_A(reduce_signals(w, 4)).matrix)
    ref = hull_decompose(cloud)
    np.testing.assert_array_equal(decomp.h1, ref.h1)
    np.testing.assert_array_equal(decomp.interior_columns, ref.interior_columns)


def test_one_column_dedup_per_pipeline_run(dedup_calls):
    w, _ = generate_instance(PIPELINE_SPECS[0])
    run_oua(w, SolverConfig())
    assert len(dedup_calls) == 1
    dedup_calls.clear()
    run_ablation(w, SolverConfig())
    assert len(dedup_calls) == 1


def test_run_oua_reports_plain_int_shape_for_numpy_ints():
    w, _ = generate_instance(SynthSpec(n=50, k=2, m=5, signal_accuracy=0.8, seed=0))
    w = WeakSignalMatrix(values=w.values, abstain=w.abstain, n=np.int64(w.n), k=np.int64(w.k))
    lbl = run_oua(w, SolverConfig())
    assert type(lbl.n) is int and type(lbl.k) is int
    json.dumps(lbl.to_dict())


def test_run_oua_is_deterministic_per_seed():
    spec = SynthSpec(n=40, k=2, m=8, signal_accuracy=0.85, abstain_rate=0.1, seed=3)
    w, _ = generate_instance(spec)
    a = run_oua(w, SolverConfig(seed=7))
    b = run_oua(w, SolverConfig(seed=7))
    np.testing.assert_array_equal(a.soft, b.soft)
    assert a.epsilon_used == b.epsilon_used


def test_solve_seed_dependence_when_underdetermined():
    # three mutually orthogonal rows leave a 16-dimensional solution set, so
    # different seeds settle on visibly different exact solutions
    n = 10
    v1 = np.tile([1.0, -1.0], n)
    v2 = np.concatenate([np.ones(n), -np.ones(n)])
    A = np.vstack([v1, v2, v1 * v2])
    rng = np.random.default_rng(7)
    y_star = rng.uniform(0.3, 0.7, size=2 * n)
    y_star *= n / y_star.sum()
    a_aug = np.vstack([A, np.ones(2 * n)])
    b_aug = np.concatenate([A @ y_star, [float(n)]])
    s1 = solve_labels(a_aug, b_aug, SolverConfig(seed=1))
    s2 = solve_labels(a_aug, b_aug, SolverConfig(seed=2))
    assert np.max(np.abs(s1.soft - s2.soft)) > 0.01
    assert s1.residual <= 1e-8 and s2.residual <= 1e-8


def test_run_oua_artifact_contract():
    spec = SynthSpec(n=50, k=3, m=10, signal_accuracy=0.8, abstain_rate=0.2, seed=1)
    w, truth = generate_instance(spec)
    lbl = run_oua(w, SolverConfig())
    assert lbl.mode == "safe_region"
    assert 0.0 <= lbl.epsilon_used <= epsilon_upper_bound(3)
    assert lbl.soft.shape == (w.n * w.k,)
    assert set(np.unique(lbl.hard)) <= set(range(1, w.k + 1))
    assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
    assert abs(lbl.soft.sum() - w.n) <= w.n * 1e-6


def test_run_oua_perfect_signals_stay_safe_at_the_bound():
    # perfect one-hot signals: the target is SAFE immediately at eps_max, the
    # system is underdetermined, and the decoded labels are seed-dependent;
    # the voting baselines are the ones that recover the truth exactly
    spec = SynthSpec(n=30, k=2, m=6, signal_accuracy=1.0, abstain_rate=0.0, seed=2)
    w, truth = generate_instance(spec)
    lbl = run_oua(w, SolverConfig())
    assert lbl.epsilon_used == pytest.approx(epsilon_upper_bound(2))
    assert abs(lbl.soft.sum() - w.n) <= w.n * 1e-6
    assert accuracy(majority_vote(w), truth).value == 1.0
    assert accuracy(weighted_majority_vote(w), truth).value == 1.0
