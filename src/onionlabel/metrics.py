"""Voting baselines and evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hull import _check_cloud
from .signals import LabelVector, WeakSignalMatrix, _freeze
from .solver import _block_argmax, epsilon_upper_bound

__all__ = [
    "EvalReport",
    "majority_vote",
    "weighted_majority_vote",
    "accuracy",
    "f1",
    "random_baseline_error",
]


@dataclass(frozen=True)
class EvalReport:
    metric: str
    value: float
    per_class: dict[int, float]
    n: int

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "value": self.value,
            "per_class": {str(c): v for c, v in sorted(self.per_class.items())},
            "n": self.n,
        }


def _class_tallies(w: WeakSignalMatrix) -> np.ndarray:
    """(k, n) sums of non-abstain signal values per class and point; the
    vote counts, exactly as floats, for a matrix that keeps its votes.  Each
    class is counted in the smallest unsigned dtype that holds m, which sums
    the m rows in a fraction of the time an intp count takes.
    Raises on a float matrix holding NaN or a value outside [0, 1], as
    ``build_A`` does."""
    if w.votes is not None:
        tallies = np.empty((w.k, w.n))
        count = np.min_scalar_type(w.m)
        for c, row in enumerate(tallies, start=1):
            row[:] = (w.votes == c).sum(axis=0, dtype=count)
        return tallies
    _check_cloud(w.values, top=1.0)
    masked = np.where(w.abstain, 0.0, w.values)
    return masked.sum(axis=0).reshape(w.k, w.n)


def _decode_votes(scores: np.ndarray, w: WeakSignalMatrix, seed: int) -> LabelVector:
    """Per-point argmax of (k, n) class scores; seeded random class where all abstain."""
    hard = _block_argmax(scores)
    if w.votes is not None:
        all_abstain = ~w.votes.any(axis=0)
    else:
        all_abstain = w.abstain.reshape(w.m, w.k, w.n).all(axis=(0, 1))
    if all_abstain.any():
        rng = np.random.default_rng(seed)
        hard[all_abstain] = rng.integers(1, w.k + 1, size=int(all_abstain.sum()))
    return LabelVector(hard=_freeze(hard, owned=True), k=w.k)


def majority_vote(w: WeakSignalMatrix, seed: int = 0) -> LabelVector:
    """Per-point argmax of non-abstain tallies; ties pick the lowest class.

    Points on which every signal abstained get a seeded random class.
    """
    return _decode_votes(_class_tallies(w), w, seed)


def weighted_majority_vote(w: WeakSignalMatrix, prior: np.ndarray | None = None,
                           seed: int = 0) -> LabelVector:
    """Majority vote with per-class tallies scaled by a prior.

    The default prior is the empirical distribution of non-abstain votes over
    classes.  A supplied prior must be length k and sum to 1.  A uniform prior
    reproduces plain majority vote exactly.
    """
    tallies = _class_tallies(w)
    if prior is None:
        total = tallies.sum()
        prior = tallies.sum(axis=1) / total if total > 0 else np.full(w.k, 1.0 / w.k)
    else:
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != (w.k,):
            raise ValueError(f"prior must have length k = {w.k}")
        if not (prior.min() >= 0 and abs(float(prior.sum()) - 1.0) <= 1e-9):  # also NaN
            raise ValueError("prior must be nonnegative and sum to 1")
    return _decode_votes(tallies * prior[:, None], w, seed)


def _check_pair(pred: LabelVector, truth: LabelVector):
    if pred.n != truth.n:
        raise ValueError(f"length mismatch: {pred.n} predictions vs {truth.n} labels")
    if pred.k != truth.k:
        raise ValueError(f"class-count mismatch: k={pred.k} vs k={truth.k}")


def accuracy(pred: LabelVector, truth: LabelVector) -> EvalReport:
    """Fraction of points labelled correctly, with per-class recall."""
    _check_pair(pred, truth)
    hit = pred.hard == truth.hard
    per_class = {}
    for c in range(1, truth.k + 1):
        sel = truth.hard == c
        per_class[c] = float(hit[sel].mean()) if sel.any() else 0.0
    return EvalReport(metric="accuracy", value=float(hit.mean()),
                      per_class=per_class, n=truth.n)


def f1(pred: LabelVector, truth: LabelVector, positive_class: int = 1) -> EvalReport:
    """Binary F1 for the positive class; defined only for k = 2.

    Returns 0.0 when precision and recall are both zero.
    """
    _check_pair(pred, truth)
    if truth.k != 2:
        raise ValueError(f"f1 is defined for k=2 only, got k={truth.k}")
    if positive_class not in (1, 2):
        raise ValueError("positive_class must be 1 or 2")
    scores = {}
    for c in (1, 2):
        tp = int(((pred.hard == c) & (truth.hard == c)).sum())
        fp = int(((pred.hard == c) & (truth.hard != c)).sum())
        fn = int(((pred.hard != c) & (truth.hard == c)).sum())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores[c] = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return EvalReport(metric="f1", value=scores[positive_class],
                      per_class=scores, n=truth.n)


def random_baseline_error(k: int) -> float:
    """Expected error rate of a uniform random guesser: 2/k - 2/k**2."""
    return epsilon_upper_bound(k)
