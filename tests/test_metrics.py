"""Voting baselines and evaluation metrics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel.metrics import (
    EvalReport,
    accuracy,
    f1,
    majority_vote,
    random_baseline_error,
    weighted_majority_vote,
)
from onionlabel.hull import build_A
from onionlabel.signals import LabelVector, WeakSignalMatrix, expand_pws

# ---------------------------------------------------------------------------
# majority vote


def test_majority_vote_worked_example(table_signals, table_truth):
    pred = majority_vote(table_signals)
    assert pred.hard.tolist() == [1, 2, 3, 1, 3]
    assert np.array_equal(pred.hard, table_truth.hard)
    report = accuracy(pred, table_truth)
    assert report.value == 1.0
    assert all(v == 1.0 for v in report.per_class.values())


def test_majority_vote_tie_picks_lowest_class():
    votes = np.array([[2], [1]])  # one vote each for classes 2 and 1
    pred = majority_vote(expand_pws(votes, k=2))
    assert pred.hard.tolist() == [1]


def test_majority_vote_all_abstain_uses_seeded_fallback():
    votes = np.array([[0, 1], [0, 1]])  # point 0 gets no votes at all
    w = expand_pws(votes, k=2)
    a = majority_vote(w, seed=0)
    b = majority_vote(w, seed=0)
    assert np.array_equal(a.hard, b.hard)
    assert a.hard[1] == 1  # the voted point is unaffected
    assert a.hard[0] in (1, 2)
    draws = {majority_vote(w, seed=s).hard[0] for s in range(30)}
    assert draws == {1, 2}  # the fallback really is random across seeds


def test_majority_vote_counts_only_non_abstain_votes():
    # two abstains and one vote for class 2 must yield class 2, even though
    # the abstain fills alone would favour nothing
    votes = np.array([[0], [0], [2]])
    pred = majority_vote(expand_pws(votes, k=3))
    assert pred.hard.tolist() == [2]


# ---------------------------------------------------------------------------
# weighted majority vote


@given(seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_wmv_with_uniform_prior_equals_mv(seed):
    rng = np.random.default_rng(seed)
    m, n, k = int(rng.integers(1, 6)), int(rng.integers(1, 10)), int(rng.integers(2, 5))
    votes = rng.integers(0, k + 1, size=(m, n))
    w = expand_pws(votes, k)
    mv = majority_vote(w, seed=0)
    wmv = weighted_majority_vote(w, prior=np.full(k, 1.0 / k), seed=0)
    assert np.array_equal(mv.hard, wmv.hard)


def test_wmv_default_prior_breaks_ties_toward_frequent_class():
    # point 0 is tied 1-vs-2; the corpus overall is dominated by class 2
    votes = np.array([[1, 2, 2], [2, 2, 2]])
    w = expand_pws(votes, k=2)
    assert majority_vote(w).hard[0] == 1  # plain tie -> lowest class
    assert weighted_majority_vote(w).hard[0] == 2  # empirical prior favours 2


def test_wmv_explicit_prior_overrides():
    votes = np.array([[1, 2, 2], [2, 2, 2]])
    w = expand_pws(votes, k=2)
    pred = weighted_majority_vote(w, prior=np.array([0.9, 0.1]))
    assert pred.hard[0] == 1


def test_wmv_rejects_bad_priors(table_signals):
    with pytest.raises(ValueError):
        weighted_majority_vote(table_signals, prior=np.array([0.5, 0.5]))  # wrong k
    with pytest.raises(ValueError):
        weighted_majority_vote(table_signals, prior=np.array([0.5, 0.6, 0.1]))
    with pytest.raises(ValueError):
        weighted_majority_vote(table_signals, prior=np.array([-0.2, 0.6, 0.6]))
    with pytest.raises(ValueError):  # every check of a NaN prior is false
        weighted_majority_vote(table_signals, prior=np.array([np.nan, 0.5, 0.5]))


@pytest.mark.parametrize("values, message", [
    ([[0.0, np.nan, 1.0, 1.0], [1.0, 0.5, 0.0, 0.5]], "cloud contains NaN"),
    ([[0.0, 7.0, 1.0, -3.0]], r"must lie in \[0, 1\]"),
])
def test_votes_reject_a_float_matrix_that_build_A_rejects(values, message):
    # a hand-built matrix holding NaN or a value outside [0, 1] is not
    # labelled: both votes raise build_A's error
    values = np.array(values)
    w = WeakSignalMatrix(values=values, abstain=np.zeros(values.shape, bool), n=2, k=2)
    for vote in (majority_vote, weighted_majority_vote, build_A):
        with pytest.raises(ValueError, match=message):
            vote(w)


# ---------------------------------------------------------------------------
# votes counted from a matrix that keeps them


def _assert_votes_count_as_floats(w, seed: int):
    bare = WeakSignalMatrix(values=w.values, abstain=w.abstain, n=w.n, k=w.k)
    assert w.votes is not None and bare.votes is None
    for vote in (majority_vote, weighted_majority_vote):
        got, want = vote(w, seed=seed).hard, vote(bare, seed=seed).hard
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), vote.__name__


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_vote_tallies_equal_the_float_tallies(k):
    # both majority votes, counted from the votes, give the labels of the
    # float tallies bit for bit, seeded draws for all-abstain points included
    rng = np.random.default_rng(k)
    for m, n, abstain in itertools.product(
            (1, 3, 5, 7, 10, 12, 23, 48), (1, 50, 5000), (0.0, 0.4, 1.0)):
        votes = rng.integers(1, k + 1, size=(m, n))
        votes[rng.random((m, n)) < abstain] = 0
        _assert_votes_count_as_floats(expand_pws(votes, k), seed=m)


@given(seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_property_vote_tallies_equal_the_float_tallies(seed):
    rng = np.random.default_rng(seed)
    m, n, k = int(rng.integers(1, 9)), int(rng.integers(1, 30)), int(rng.integers(2, 7))
    _assert_votes_count_as_floats(expand_pws(rng.integers(0, k + 1, size=(m, n)), k), seed)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_value_and_per_class_recall():
    pred = LabelVector(hard=np.array([1, 2, 2, 1]), k=2)
    truth = LabelVector(hard=np.array([1, 2, 1, 2]), k=2)
    report = accuracy(pred, truth)
    assert report.value == 0.5
    assert report.per_class == {1: 0.5, 2: 0.5}
    assert report.n == 4
    assert report.metric == "accuracy"


def test_accuracy_missing_class_scores_zero():
    pred = LabelVector(hard=np.array([1, 1]), k=3)
    truth = LabelVector(hard=np.array([1, 1]), k=3)
    report = accuracy(pred, truth)
    assert report.value == 1.0
    assert report.per_class == {1: 1.0, 2: 0.0, 3: 0.0}


def test_accuracy_rejects_mismatched_pairs():
    with pytest.raises(ValueError):
        accuracy(
            LabelVector(hard=np.array([1]), k=2), LabelVector(hard=np.array([1, 2]), k=2)
        )
    with pytest.raises(ValueError):
        accuracy(
            LabelVector(hard=np.array([1]), k=2), LabelVector(hard=np.array([1]), k=3)
        )


# ---------------------------------------------------------------------------
# f1


def test_f1_known_confusion():
    pred = LabelVector(hard=np.array([1, 1, 2, 2]), k=2)
    truth = LabelVector(hard=np.array([1, 2, 1, 2]), k=2)
    report = f1(pred, truth)
    assert report.metric == "f1"
    assert report.value == 0.5  # precision = recall = 0.5 for class 1
    assert report.per_class == {1: 0.5, 2: 0.5}


def test_f1_perfect_and_inverted():
    truth = LabelVector(hard=np.array([1, 2, 1, 2]), k=2)
    assert f1(truth, truth).value == 1.0
    inverted = LabelVector(hard=np.array([2, 1, 2, 1]), k=2)
    assert f1(inverted, truth).value == 0.0


def test_f1_positive_class_selection():
    pred = LabelVector(hard=np.array([1, 1, 1, 2]), k=2)
    truth = LabelVector(hard=np.array([1, 1, 2, 2]), k=2)
    r1 = f1(pred, truth, positive_class=1)
    r2 = f1(pred, truth, positive_class=2)
    assert r1.value == pytest.approx(4 / 5)  # tp=2 fp=1 fn=0
    assert r2.value == pytest.approx(2 / 3)  # tp=1 fp=0 fn=1
    with pytest.raises(ValueError):
        f1(pred, truth, positive_class=3)


def test_f1_requires_binary_labels(table_truth):
    with pytest.raises(ValueError):
        f1(table_truth, table_truth)


# ---------------------------------------------------------------------------
# random baseline / report plumbing


def test_random_baseline_error_values():
    assert random_baseline_error(2) == 0.5
    assert random_baseline_error(3) == pytest.approx(4 / 9)
    assert random_baseline_error(4) == 0.375
    with pytest.raises(ValueError):
        random_baseline_error(1)


def test_eval_report_to_dict_sorts_classes():
    report = EvalReport(metric="accuracy", value=0.5, per_class={2: 0.1, 1: 0.9}, n=4)
    doc = report.to_dict()
    assert list(doc["per_class"]) == ["1", "2"]
    assert doc["n"] == 4
