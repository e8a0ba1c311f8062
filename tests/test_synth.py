"""Planted-instance generation, the LP vertex oracle, ablation, and sweeps."""

from __future__ import annotations

import csv
import logging
import re
import subprocess
import sys

import numpy as np
import pytest

from onionlabel import synth
from onionlabel.hull import ColumnCloud, PivotBudgetError, extreme_points
from onionlabel.signals import LabelVector, WeakSignalMatrix, expected_error_rate
from onionlabel.solver import SolverConfig, epsilon_upper_bound, run_oua
from onionlabel.metrics import accuracy
from onionlabel.synth import (
    SWEEP_COLUMNS,
    AblationEntryError,
    SynthSpec,
    brute_force_vertex_oracle,
    generate_instance,
    generate_votes,
    run_ablation,
    sweep,
    write_sweep_csv,
)

# ---------------------------------------------------------------------------
# SynthSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=1, m=2, signal_accuracy=0.9)
    with pytest.raises(ValueError):
        SynthSpec(n=0, k=2, m=2, signal_accuracy=0.9)
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=2, m=0, signal_accuracy=0.9)
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.5)  # must beat chance 1/k
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=1.1)
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, abstain_rate=1.0)
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, class_balance=(1.0,))
    with pytest.raises(ValueError):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, class_balance=(0.8, 0.1))


@pytest.mark.parametrize("bad", [True, False, np.True_, "0.9", None])
def test_spec_rates_are_real_numbers(bad):
    # a bool or a string is no rate: signal_accuracy=True planted accuracy 1,
    # and a string raised TypeError from the comparison; each gets its
    # setting's own message
    with pytest.raises(ValueError, match=r"signal_accuracy must lie in \(1/k, 1\], "
                                         rf"got {re.escape(str(bad))}$"):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=bad)
    with pytest.raises(ValueError, match=r"abstain_rate must lie in \[0, 1\), "
                                         rf"got {re.escape(str(bad))}$"):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, abstain_rate=bad)
    with pytest.raises(ValueError, match=r"class_balance must be nonnegative and sum to 1$"):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, class_balance=(bad, 0.0))
    with pytest.raises(ValueError, match=r"class_balance must be nonnegative and sum to 1$"):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, class_balance=(0.5, bad))
    spec = SynthSpec(n=10, k=2, m=2, signal_accuracy=1, abstain_rate=np.float32(0.25),
                     class_balance=(1, np.float64(0.0)))
    assert spec.class_balance == (1.0, 0.0) and type(spec.class_balance[0]) is float


@pytest.mark.parametrize("bad", [True, None, 1.5, -3, "0"])
def test_spec_seed_is_a_nonnegative_integer(bad):
    # None would draw an unseeded instance and True the seed-1 one
    message = f"seed must be an integer >= 0, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, seed=bad)
    assert SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, seed=np.int64(7)).seed == 7


def test_spec_class_balance_must_be_a_sequence():
    with pytest.raises(ValueError, match=r"^class_balance must be a sequence of k = 2 weights, "
                                         r"got 0\.5$"):
        SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, class_balance=0.5)
    spec = SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, class_balance=[0.5, 0.5])
    assert spec.class_balance == (0.5, 0.5)


def test_spec_balance_defaults_to_uniform():
    spec = SynthSpec(n=4, k=4, m=1, signal_accuracy=0.5)
    np.testing.assert_allclose(spec.balance, 0.25)
    spec = SynthSpec(n=4, k=2, m=1, signal_accuracy=0.9, class_balance=(0.7, 0.3))
    np.testing.assert_allclose(spec.balance, [0.7, 0.3])


# ---------------------------------------------------------------------------
# generators


def test_generate_votes_shape_alphabet_determinism():
    spec = SynthSpec(n=200, k=3, m=4, signal_accuracy=0.8, abstain_rate=0.3, seed=9)
    votes, truth = generate_votes(spec)
    votes2, truth2 = generate_votes(spec)
    assert votes.shape == (4, 200)
    assert np.array_equal(votes, votes2) and np.array_equal(truth.hard, truth2.hard)
    assert set(np.unique(votes)) <= set(range(0, 4))
    assert set(np.unique(truth.hard)) <= {1, 2, 3}


def test_generate_votes_rates_match_spec():
    spec = SynthSpec(n=5000, k=3, m=2, signal_accuracy=0.8, abstain_rate=0.3, seed=0)
    votes, truth = generate_votes(spec)
    abstain_rate = float((votes == 0).mean())
    assert abstain_rate == pytest.approx(0.3, abs=0.02)
    voted = votes != 0
    hits = votes == truth.hard[None, :]
    assert float(hits[voted].mean()) == pytest.approx(0.8, abs=0.02)


def test_generate_votes_respects_class_balance():
    spec = SynthSpec(
        n=6000, k=2, m=1, signal_accuracy=0.9, class_balance=(0.9, 0.1), seed=1
    )
    _, truth = generate_votes(spec)
    assert float((truth.hard == 1).mean()) == pytest.approx(0.9, abs=0.02)


def _generate_votes_by_copies(spec):
    """``generate_votes`` as it was written before it built the votes in
    place: the same draws, with a copy for each step."""
    rng = np.random.default_rng(spec.seed)
    y = rng.choice(np.arange(1, spec.k + 1), size=spec.n, p=spec.balance)
    ab = rng.random((spec.m, spec.n)) < spec.abstain_rate
    correct = rng.random((spec.m, spec.n)) < spec.signal_accuracy
    offset = rng.integers(1, spec.k, size=(spec.m, spec.n))
    wrong = (y[None, :] - 1 + offset) % spec.k + 1
    votes = np.where(correct, y[None, :], wrong)
    votes[ab] = 0
    return votes.astype(np.int64), y


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("balanced", [True, False])
def test_generate_votes_in_place_equals_the_copies(k, balanced):
    # bitwise the same votes, dtype and layout, and the same truth
    weights = np.arange(1.0, k + 1.0)
    balance = None if balanced else tuple(weights / weights.sum())
    for n, m, seed in ((1, 1, 0), (300, 7, 5), (2000, 10, 97)):
        spec = SynthSpec(n=n, k=k, m=m, signal_accuracy=0.7, abstain_rate=0.3,
                         class_balance=balance, seed=seed)
        votes, truth = generate_votes(spec)
        want_votes, want_truth = _generate_votes_by_copies(spec)
        assert votes.dtype == want_votes.dtype and votes.flags.c_contiguous
        assert votes.tobytes() == want_votes.tobytes()
        assert truth.hard.tobytes() == want_truth.tobytes()


def test_generate_instance_expands_votes():
    spec = SynthSpec(n=6, k=2, m=2, signal_accuracy=0.9, abstain_rate=0.4, seed=4)
    votes, _ = generate_votes(spec)
    w, truth = generate_instance(spec)
    assert isinstance(w, WeakSignalMatrix)
    assert w.n == 6 and w.k == 2 and w.m == 2
    np.testing.assert_array_equal(w.abstain[:, :6], votes == 0)
    hit = votes == 1
    np.testing.assert_allclose(w.values[:, :6][hit], 1.0)


def test_generator_error_rate_matches_analytic_value():
    # eps_i = (2 - 2a/k - 2(1-a)*acc) / k for the planted generator
    a, acc, k, n = 0.3, 0.8, 2, 4000
    spec = SynthSpec(n=n, k=k, m=3, signal_accuracy=acc, abstain_rate=a, seed=6)
    w, truth = generate_instance(spec)
    want = (2 - 2 * a / k - 2 * (1 - a) * acc) / k
    for i in range(w.m):
        got = expected_error_rate(w.values[i], truth)
        assert got == pytest.approx(want, abs=0.02)


def test_perfect_generator_error_rate_is_zero():
    spec = SynthSpec(n=50, k=3, m=2, signal_accuracy=1.0, abstain_rate=0.0, seed=0)
    w, truth = generate_instance(spec)
    for i in range(w.m):
        assert expected_error_rate(w.values[i], truth) == 0.0


# ---------------------------------------------------------------------------
# brute-force vertex oracle


def test_vertex_oracle_toys():
    square_center = ColumnCloud(np.array([[0, 2, 0, 2, 1], [0, 0, 2, 2, 1]], float))
    assert brute_force_vertex_oracle(square_center).tolist() == [0, 1, 2, 3]
    dup = ColumnCloud(np.array([[2, 0, 2], [2, 0, 2]], float))
    assert brute_force_vertex_oracle(dup).tolist() == [0, 1]
    one_value = ColumnCloud(np.ones((2, 3)))
    assert brute_force_vertex_oracle(one_value).tolist() == [0]


def test_vertex_oracle_agrees_with_fast_path():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cloud = ColumnCloud(rng.uniform(0, 2, size=(3, 12)))
        assert brute_force_vertex_oracle(cloud).tolist() == extreme_points(cloud).tolist()


def test_vertex_oracle_rejects_large_clouds():
    cloud = ColumnCloud(np.zeros((2, 61)))
    with pytest.raises(ValueError):
        brute_force_vertex_oracle(cloud)


def test_package_import_leaves_out_scipy_optimize():
    # only the oracle needs linprog; a fresh interpreter shows what the import loads
    code = "import sys, onionlabel; print('scipy.optimize' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# ablation


def test_run_ablation_flags_mode_and_uses_the_bound():
    spec = SynthSpec(n=60, k=2, m=8, signal_accuracy=0.8, abstain_rate=0.2, seed=5)
    w, truth = generate_instance(spec)
    lbl = run_ablation(w, SolverConfig())
    assert lbl.mode == "ablation"
    assert lbl.epsilon_used == pytest.approx(epsilon_upper_bound(2))
    assert abs(lbl.soft.sum() - w.n) <= w.n * 1e-6


def test_run_ablation_tracks_below_safe_region_on_one_instance():
    spec = SynthSpec(n=200, k=2, m=10, signal_accuracy=0.8, abstain_rate=0.3, seed=11)
    w, truth = generate_instance(spec)
    safe_pred = LabelVector(hard=run_oua(w, SolverConfig()).hard, k=2)
    abl_pred = LabelVector(hard=run_ablation(w, SolverConfig()).hard, k=2)
    assert accuracy(abl_pred, truth).value <= accuracy(safe_pred, truth).value + 0.02


def test_run_ablation_raises_without_an_inner_hull():
    # all four distinct columns are hull vertices: nothing lies inside H2
    values = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    w = WeakSignalMatrix(values=values, abstain=np.zeros((2, 4), bool), n=2, k=2)
    with pytest.raises(AblationEntryError):
        run_ablation(w, SolverConfig())


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_schema():
    specs = [
        SynthSpec(n=30, k=2, m=4, signal_accuracy=0.9, abstain_rate=0.1, seed=0),
        SynthSpec(n=30, k=3, m=4, signal_accuracy=0.9, abstain_rate=0.1, seed=1),
    ]
    rows = sweep(specs, ["oua", "mv"], SolverConfig())
    assert len(rows) == 4
    for row in rows:
        assert list(row) == list(SWEEP_COLUMNS)
        assert row["metric"] == "accuracy"
        assert row["wall_ms"] > 0
        assert 0.0 <= row["value"] <= 1.0
    oua_rows = [r for r in rows if r["method"] == "oua"]
    mv_rows = [r for r in rows if r["method"] == "mv"]
    assert all(r["epsilon_used"] is not None and r["residual"] is not None for r in oua_rows)
    assert all(r["epsilon_used"] is None and r["residual"] is None for r in mv_rows)
    assert rows[0]["instance_id"] == "i000-n30-k2-m4-s0"


def test_sweep_failure_keeps_the_row():
    # a single perfect signal has no inner hull, so the ablation cell fails
    specs = [SynthSpec(n=20, k=2, m=1, signal_accuracy=1.0, seed=0)]
    rows = sweep(specs, ["ablation", "mv"], SolverConfig())
    abl = next(r for r in rows if r["method"] == "ablation")
    mv = next(r for r in rows if r["method"] == "mv")
    assert abl["value"] is None and abl["epsilon_used"] is None
    assert abl["wall_ms"] > 0
    assert mv["value"] == 1.0


def test_sweep_cell_out_of_pivots_keeps_its_row(monkeypatch, caplog):
    # a cell whose LP runs out of pivots fails alone; the later cells still run
    specs = [SynthSpec(n=30, k=2, m=4, signal_accuracy=0.9, abstain_rate=0.1, seed=s)
             for s in (0, 1)]
    real, calls = synth.run_oua, []

    def first_cell_out_of_pivots(w, cfg):
        calls.append(w.n)
        if len(calls) == 1:
            raise PivotBudgetError("phase-1 simplex exhausted its pivot budget")
        return real(w, cfg)

    monkeypatch.setattr(synth, "run_oua", first_cell_out_of_pivots)
    with caplog.at_level(logging.WARNING, logger="onionlabel.synth"):
        rows = sweep(specs, ["oua", "mv"], SolverConfig())
    assert [r["method"] for r in rows] == ["oua", "mv", "oua", "mv"]
    assert rows[0]["value"] is None and rows[0]["epsilon_used"] is None
    assert rows[0]["residual"] is None and rows[0]["wall_ms"] > 0
    assert all(r["value"] is not None for r in rows[1:])
    assert rows[2]["epsilon_used"] is not None and len(calls) == 2
    [record] = caplog.records
    assert record.levelname == "WARNING" and "PivotBudgetError" in record.getMessage()


def test_sweep_rejects_unknown_method():
    specs = [SynthSpec(n=10, k=2, m=2, signal_accuracy=0.9, seed=0)]
    with pytest.raises(ValueError):
        sweep(specs, ["nope"], SolverConfig())


def test_write_sweep_csv_roundtrip(tmp_path):
    rows = [
        {
            "instance_id": "i000-n10-k2-m2-s0",
            "method": "oua",
            "metric": "accuracy",
            "value": 0.912345678912,
            "epsilon_used": 0.25,
            "residual": 1.25e-7,
            "wall_ms": 10.5,
        },
        {
            "instance_id": "i000-n10-k2-m2-s0",
            "method": "ablation",
            "metric": "accuracy",
            "value": None,
            "epsilon_used": None,
            "residual": None,
            "wall_ms": 3.25,
        },
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(path))
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert list(got[0]) == list(SWEEP_COLUMNS)
    assert got[0]["value"] == "0.9123456789"  # ten significant digits
    assert got[0]["residual"] == "1.25e-07"
    assert got[1]["value"] == "" and got[1]["epsilon_used"] == ""
    assert got[1]["wall_ms"] == "3.25"
