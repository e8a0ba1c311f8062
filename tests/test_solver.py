"""Target construction, annealing, and the exact label solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel import solver
from onionlabel.hull import SafeRegionStatus, build_A, hull_decompose, safe_region_status
from onionlabel.metrics import majority_vote, weighted_majority_vote, accuracy
from onionlabel.signals import WeakSignalMatrix, reduce_signals
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
from onionlabel.synth import SynthSpec, generate_instance


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


def test_anneal_respects_step_budget():
    w = signals_from_columns(
        [[0, 0], [1, 0], [0, 1], [1, 1], [0.1, 0.1], [0.9, 0.9]], n=3, k=2
    )
    cloud = build_A(w)
    with pytest.raises(AnnealingError):
        anneal_b(w, cloud, hull_decompose(cloud), SolverConfig(max_anneal_steps=5))


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
    """The original annealing loop: one status check per eps step."""
    eps = epsilon_upper_bound(w.k)
    steps = 0
    while True:
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
        if steps >= cfg.max_anneal_steps:
            raise AnnealingError(
                f"no safe target within {cfg.max_anneal_steps} annealing steps"
            )
        eps = max(0.0, eps - cfg.alpha)
        steps += 1


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


# the toy clouds above plus a perfect-signal cloud that is SAFE at index 0
_TOY_CLOUDS = [
    ([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.5, 0.5]], 3),
    ([[0, 0], [1, 0], [0, 1], [1, 1], [0.1, 0.1], [0.9, 0.9]], 3),
    ([[0, 0], [1, 0], [0, 1], [1, 1],
      [0.05, 0.05], [0.05, 0.05], [0.05, 0.05], [0.95, 0.95]], 4),
    ([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0.25, 0.25], [0.25, 0.25]], 3),
]

_ANNEAL_CONFIGS = [
    SolverConfig(alpha=alpha, max_anneal_steps=budget)
    for alpha in (0.25, 0.2, 0.05, 0.01, 0.003, 0.0005)
    for budget in (10_000, 30, 2)
]


@pytest.fixture(scope="module")
def anneal_clouds():
    """Toy clouds, the 50-instance safe-region suite and planted n=500 seeds 0-2."""
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
    return clouds


@pytest.mark.parametrize("cfg", _ANNEAL_CONFIGS,
                         ids=lambda c: f"alpha{c.alpha}-steps{c.max_anneal_steps}")
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
    assert outcomes == {"target", AnnealingError, NotSafeAtZeroError,
                        HullInconsistencyError}
    assert safe_at_bound


def test_anneal_probe_count_is_logarithmic(anneal_clouds, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return safe_region_status(*args)

    monkeypatch.setattr(solver, "safe_region_status", counting)
    for cfg in (SolverConfig(alpha=0.0005), SolverConfig(alpha=0.003),
                SolverConfig(alpha=0.0005, max_anneal_steps=30)):
        for w, cloud, decomp in anneal_clouds:
            grid_len = 1
            eps = epsilon_upper_bound(w.k)
            while eps > 0.0 and grid_len <= cfg.max_anneal_steps:
                eps = max(0.0, eps - cfg.alpha)
                grid_len += 1
            calls.clear()
            _anneal_outcome(anneal_b, w, cloud, decomp, cfg)
            assert 1 <= len(calls) <= math.ceil(math.log2(grid_len)) + 2


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
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(conv_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_anneal_steps=0)
    with pytest.raises(ValueError):
        SolverConfig(chunks=0)


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


def test_solve_feasible_start_is_a_fixed_point():
    rng = np.random.default_rng(11)
    n, k, m = 5, 2, 2
    A = rng.uniform(0.0, 2.0, size=(m, n * k))
    y_star = rng.uniform(0.3, 0.7, size=n * k)
    y_star *= n / y_star.sum()
    a_aug = np.vstack([A, np.ones(n * k)])
    b_aug = np.concatenate([A @ y_star, [float(n)]])
    lbl = solve_labels(a_aug, b_aug, SolverConfig(), y0=y_star)
    np.testing.assert_allclose(lbl.soft, y_star, atol=1e-9)
    assert lbl.iterations == 1 and lbl.converged
    assert lbl.residual <= 1e-9
    assert lbl.initial_residual <= 1e-9


def test_solve_box_sum_and_residual_monotonicity():
    rng = np.random.default_rng(21)
    n, k, m = 6, 3, 4
    a_aug = np.vstack([rng.uniform(0, 2, size=(m, n * k)), np.ones(n * k)])
    b_aug = np.concatenate([rng.uniform(0, 2 * n, size=m), [float(n)]])
    lbl = solve_labels(a_aug, b_aug, SolverConfig(seed=2))
    assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
    assert abs(lbl.soft.sum() - n) <= n * 1e-6
    assert lbl.residual <= lbl.initial_residual


def test_solve_reports_nonconvergence_honestly():
    rng = np.random.default_rng(1)
    n, k, m = 10, 2, 3
    a_aug = np.vstack([rng.uniform(0, 2, size=(m, n * k)), np.ones(n * k)])
    b_aug = np.concatenate([rng.uniform(0, 2 * n, size=m), [float(n)]])
    lbl = solve_labels(a_aug, b_aug, SolverConfig(max_iters=2))
    assert not lbl.converged
    assert lbl.iterations == 2
    # the feasibility contract still holds
    assert lbl.soft.min() >= 0.0 and lbl.soft.max() <= 1.0
    assert abs(lbl.soft.sum() - n) <= n * 1e-6


def test_solve_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        solve_labels(np.ones((2, 4)), np.ones(3))
    with pytest.raises(ValueError):
        solve_labels(np.ones((2, 4)), np.array([1.0, 0.0]))  # sum row n=0
    with pytest.raises(ValueError):
        solve_labels(np.ones((2, 4)), np.array([1.0, 3.0]))  # 3 does not divide 4
    a_aug = np.array([[2.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        solve_labels(a_aug, np.array([2.0, 1.0]), y0=np.ones(3))


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


# ---------------------------------------------------------------------------
# run_oua end to end


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
