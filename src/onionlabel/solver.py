"""Constrained least-squares recovery of soft labels from weak signals.

Pipeline: ``prepare`` reduces the signals to at most five rows, doubles them
into a column cloud and splits the cloud into hull layers.  The target vector
``b_i = -n k eps + w_i . 1 + n`` is then picked by annealing the assumed error
rate ``eps`` downward from its upper bound ``2/k - 2/k**2`` in steps of
``alpha`` until ``b/n`` leaves the inner hull.  Since ``b/n`` moves on a line
and the inner hull is convex, the first grid point outside it is bracketed in
a few rounds of membership LPs, solved one at a time, each round's probes
predicted from the separating hyperplane of the last outside probe; the
answer is the one a walk over every grid index gives.  The soft labels
solve ``min ||A y - b||_2`` over {y in [0, 1]^(nk) : sum(y) = n} exactly.
The objective depends on y only through the label sums of identical
columns, so the solve runs over the distinct columns (``backends.pgd``:
Wolfe's minimum-norm point in the image of the label sums, stopped by a
certified duality gap).  The start and the lift are closed forms on the group
sums: a seeded uniform draw is scaled toward 0 or 1 to sum to n, and each
group is scaled again from its start sum to its optimal sum, in one pass over
the labels.  The cloud's column groups (``ColumnCloud.groups``) serve both
the hull and the solve.
"""

from __future__ import annotations

import logging
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import backends
from .hull import (
    HULL_TOL,
    ColumnCloud,
    HullDecomposition,
    SafeRegionStatus,
    _combination,
    _unique_columns,
    build_A,
    convex_combination,
    hull_decompose,
    # TODO(ROADMAP item 1): unused here; kept only because perfbench/tracing.py
    # patches solver.safe_region_status
    safe_region_status,  # noqa: F401
)
from .signals import DEFAULT_CHUNKS, WeakSignalMatrix, reduce_signals

__all__ = [
    "SolverConfig",
    "TargetVector",
    "SyntheticLabel",
    "AnnealingError",
    "NotSafeAtZeroError",
    "HullInconsistencyError",
    "epsilon_upper_bound",
    "init_b",
    "anneal_b",
    "augment_system",
    "solve_labels",
    "decode_labels",
    "prepare",
    "run_oua",
]

log = logging.getLogger("onionlabel.solver")


class AnnealingError(RuntimeError):
    """Target-vector annealing could not reach a usable region."""


class NotSafeAtZeroError(AnnealingError):
    """eps hit 0 with b/n still inside the inner hull."""


class HullInconsistencyError(AnnealingError):
    """b/n left Conv(H1) during annealing; the geometry is inconsistent."""


@dataclass(frozen=True)
class SolverConfig:
    """Every run setting: signal reduction, annealing and the label solve.

    ``alpha`` is the annealing step of eps, at least the smallest normal
    float.  ``chunks`` is the number of signals left after ``reduce_signals``.
    All randomness flows from ``seed``.  The label solve's gap threshold and
    cycle budget are ``backends.GAP_TOL`` and ``backends.MAX_CYCLES``.
    """

    alpha: float = 0.01
    seed: int = 0
    chunks: int = DEFAULT_CHUNKS

    def __post_init__(self):
        # also false for NaN; below the smallest normal float the grid
        # length ub / alpha can overflow to inf
        if not sys.float_info.min <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and at least {sys.float_info.min!r}, "
                             f"got {self.alpha!r}")
        for name, least in (("chunks", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class TargetVector:
    """Right-hand side b with the error rate used to build it."""

    b: np.ndarray  # (m,)
    epsilon: float

    def __post_init__(self):
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class SyntheticLabel:
    """Solver output: soft labels plus decode and diagnostics.

    ``gap`` is the solve's certificate: sqrt(2 G) / max(1, ||b||) for the
    Frank-Wolfe duality gap G of 1/2 ||A y - b||^2 at ``soft``.  It bounds
    ||A y - A y*|| / max(1, ||b||) for the optimal fit A y*, and so also how far
    the relative residual lies above its minimum.  ``converged`` means
    ``gap <= backends.GAP_TOL``.
    """

    soft: np.ndarray  # (n*k,) in [0, 1]
    hard: np.ndarray  # (n,) classes 1..k
    residual: float  # ||A y - b||_2 without the sum row, at the solve's label sums
    epsilon_used: float
    converged: bool
    iterations: int
    initial_residual: float
    n: int
    k: int
    gap: float
    mode: str = "safe_region"

    def __post_init__(self):
        for name in ("soft", "hard"):
            a = np.ascontiguousarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "soft": [float(v) for v in self.soft],
            "hard": [int(v) for v in self.hard],
            "residual": self.residual,
            "epsilon_used": None if math.isnan(self.epsilon_used) else self.epsilon_used,
            "converged": self.converged,
            "gap": self.gap,
            "iterations": self.iterations,
            "mode": self.mode,
        }


def epsilon_upper_bound(k: int) -> float:
    """Largest expected error rate of any signal row: 2/k - 2/k**2."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 2.0 / k - 2.0 / k**2


def init_b(w: WeakSignalMatrix, eps: float) -> TargetVector:
    """Target vector at an assumed error rate: b_i = -n k eps + w_i.1 + n."""
    ub = epsilon_upper_bound(w.k)
    if eps < -1e-12 or eps > ub + 1e-12:
        raise ValueError(f"eps must lie in [0, {ub}], got {eps}")
    return _target(w, w.values.sum(axis=1), eps)


def _target(w: WeakSignalMatrix, row_sums: np.ndarray, eps: float) -> TargetVector:
    """``init_b`` from the row sums w_i.1, without the range check."""
    return TargetVector(b=-w.n * w.k * eps + row_sums + w.n, epsilon=float(eps))


def anneal_b(w: WeakSignalMatrix, cloud: ColumnCloud, decomp: HullDecomposition,
             cfg: SolverConfig | None = None) -> TargetVector:
    """Lower eps from its upper bound until b/n escapes the inner hull.

    The candidate rates form the grid ``eps_j = max(0, ub - j alpha)`` for
    ``j < J = ceil(ub / alpha)`` and ``eps_J = 0``, where ``ub = 2/k - 2/k**2``;
    each step raises every b_i by ``n k alpha``, so the targets b/n walk along
    one line.  The answer is the first grid point whose status is not
    INSIDE_H2: SAFE returns its target, OUTSIDE_H1 raises
    HullInconsistencyError, and a grid that stays inside down to eps = 0
    raises NotSafeAtZeroError.

    The line meets the convex inner hull Conv(I) in a segment, so once index
    0 is inside, the inside grid indices form a prefix.  Its end is bracketed
    in rounds of membership LPs against Conv(I), one LP per probe
    (``hull._combination``).  A round probes its indices in increasing order
    and stops at the first one outside, which becomes the bracket's top, so
    the round's later indices are never solved.  The first round tests
    indices 0 and J; index 0 outside Conv(I) settles the run before J is
    solved.  The duals (g, g0) of the outside probe at the bracket's top
    separate it from Conv(I), and g.q_j + g0 is affine in j, so its zero
    predicts the exit; each later round tests the two indices around that
    zero (Kelley's cutting planes) and, from the third round on or when the
    line does not rise through the plane, the bracket's midpoint, so it takes
    at most two rounds more than bisection.  A zero below the bracket is
    clipped to its first index only while the HULL_TOL band past the plane
    spans fewer indices than bisection takes rounds; a wider band is left to
    the midpoint.
    The duals only choose the probes; every verdict comes from a probe's
    explicit residual, so the answer is the index a walk over the whole grid
    finds.  Only the final index is tested against Conv(H1).  Each probed
    rate is computed from its index, so J may reach ~2e307.
    """
    cfg = cfg or SolverConfig()
    ub = epsilon_upper_bound(w.k)
    last = math.ceil(ub / cfg.alpha)  # J, a Python int

    def eps_at(j: int) -> float:
        return max(0.0, ub - j * cfg.alpha) if j < last else 0.0

    row_sums = w.values.sum(axis=1)
    inner = decomp.interior_columns
    E = np.vstack([inner, np.ones((1, inner.shape[1]))])

    def q_at(j: int) -> np.ndarray:
        return _target(w, row_sums, eps_at(j)).b / float(w.n)

    # invariant: index lo is INSIDE_H2 (-1: none is known to be) and index hi
    # is not (J + 1: none is known not to be); an empty inner hull contains
    # no index
    lo, hi = -1, last + 1 if inner.shape[1] else 0
    picks = [0, last]
    rounds = probes = 0  # a probe is one LP against Conv(I)
    while hi - lo > 1:
        if rounds:
            picks = set()
            slope = w.k * cfg.alpha * float(y[:-1].sum())
            zero = hi - float(y[:-1] @ q_at(hi) + y[-1]) / slope if slope > 0 else math.nan
            # A zero below lo means that lo is inside only within HULL_TOL.  A
            # point q inside within HULL_TOL has g.q + g0 <= HULL_TOL |y|_1, so
            # such points lie at most that over slope indices past the zero.  A
            # prediction clipped up to lo + 1 walks this band one index a
            # round, which pays only while the band is shorter than bisecting
            # the bracket
            if math.isfinite(zero) and (
                    zero >= lo or HULL_TOL * float(np.abs(y).sum()) / slope < math.log2(hi - lo)):
                picks = {min(max(j, lo + 1), hi - 1)
                         for j in (math.floor(zero), math.floor(zero) + 1)}
            if rounds > 1 or not picks:  # a prediction already failed, or there is none
                picks.add((lo + hi) // 2)
            picks = sorted(picks)
        rounds += 1
        for j in picks:  # in index order, up to the first one outside
            probes += 1
            _, inside, y_j = _combination(E, q_at(j))
            if not inside:
                hi, y = j, y_j
                break
            lo = j
    tv = _target(w, row_sums, eps_at(hi))
    status = SafeRegionStatus.INSIDE_H2
    if hi <= last:
        safe = convex_combination(decomp.vertex_columns, tv.b / float(w.n))[1]
        status = SafeRegionStatus.SAFE if safe else SafeRegionStatus.OUTSIDE_H1
    reached = min(hi, last)
    log.debug("anneal: %s at eps=%.6f, grid index %d of %d, %d probes in %d rounds, %d LPs",
              status.value, eps_at(reached), reached, last + 1, probes, rounds,
              probes + (hi <= last))
    if status is SafeRegionStatus.SAFE:
        return tv
    if status is SafeRegionStatus.OUTSIDE_H1:
        raise HullInconsistencyError(
            f"b/n fell outside Conv(H1) at eps={eps_at(hi):.6f}; "
            "the annealing step overshot the safe shell"
        )
    raise NotSafeAtZeroError(
        "b/n is still inside the inner hull at eps=0; no safe target exists"
    )


def augment_system(cloud: ColumnCloud, b: TargetVector, n: int):
    """Stack the all-ones row / n onto (A, b) to carry sum(y) = n."""
    if b.b.shape != (cloud.dim,):
        raise ValueError("target dimension does not match the cloud")
    A_aug = np.vstack([cloud.matrix, np.ones((1, cloud.n_points))])
    b_aug = np.append(b.b, float(n))
    return A_aug, b_aug


def _block_argmax(scores: np.ndarray) -> np.ndarray:
    """Classes 1..k of the column maxima of finite (k, n) scores, ties to the
    lowest class: ``argmax(axis=0) + 1`` without its copy of the array."""
    k, n = scores.shape
    best, hard = scores[0], np.ones(n, dtype=np.int64)
    for c in range(1, k):
        np.copyto(hard, c + 1, where=scores[c] > best)
        if c + 1 < k:
            best = np.maximum(best, scores[c])
    return hard


def decode_labels(soft: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per-point argmax over the class blocks of finite soft labels; ties go
    to the lowest class."""
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (n * k,):
        raise ValueError(f"soft labels must have length n*k = {n * k}")
    return _block_argmax(soft.reshape(k, n))


def solve_labels(a_aug: np.ndarray, b_aug: np.ndarray, cfg: SolverConfig | None = None,
                 epsilon_used: float = float("nan")) -> SyntheticLabel:
    """Exact capped least squares on an explicit augmented system.

    Minimizes ||A y - b|| over {y in [0,1]^(nk), sum(y) = n}, where the last
    row of the augmented system is the sum row and its right-hand side is n,
    a positive integer that divides nk; every entry of the system must be
    finite.  Columns of A with equal values are grouped.  The start is the
    seeded Uniform(0,1) draw, scaled toward 0 or toward 1 until it sums to n
    (``backends.spread``).  ``backends.pgd`` finds optimal label sums per
    group from the start's, and each group's start labels are scaled again,
    toward 0 or 1, to its optimal sum; a sum of 0 or of the group's size
    gives labels of exactly 0 or 1.  The answer is therefore exactly
    feasible, optimal up to the reported gap, and depends on the seed where
    the optimal sums admit many spreads.  ``converged`` is False when the
    solve ends above ``backends.GAP_TOL``: its ``backends.MAX_CYCLES`` major
    cycles ran out, or rounding stopped its progress first.  The reported
    residuals exclude the sum row and are taken at the group sums:
    ``initial_residual`` at the start's, ``residual`` at the solve's, so a
    start the solve certifies as optimal reports both equal.  ``run_oua``
    solves the same problem on its cloud without building the augmented
    system.
    """
    a_aug = np.ascontiguousarray(a_aug, dtype=np.float64)
    b_aug = np.ascontiguousarray(b_aug, dtype=np.float64)
    if a_aug.ndim != 2 or b_aug.shape != (a_aug.shape[0],):
        raise ValueError("augmented system shapes are inconsistent")
    n = float(b_aug[-1])
    if not (1.0 <= n < math.inf and n.is_integer()) or a_aug.shape[1] % int(n):
        raise ValueError("sum row of the augmented system must be a positive "
                         f"integer n with n | nk, got {n!r}")
    for name, arr in (("a_aug", a_aug), ("b_aug", b_aug)):
        # a NaN would end the solve in a LinAlgError from its least-squares step
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    return _solve(b_aug[:-1], int(n), _unique_columns(a_aug[:-1]), cfg or SolverConfig(),
                  epsilon_used)


def _solve(b: np.ndarray, n: int, groups, cfg: SolverConfig,
           epsilon_used: float = float("nan"), mode: str = "safe_region") -> SyntheticLabel:
    """``solve_labels`` on b without the sum row, with n given and
    ``groups = _unique_columns(A)`` (``ColumnCloud.groups`` for a cloud)."""
    distinct, _, group = groups
    nk, n = group.size, int(n)  # a numpy n would reach the JSON artifact
    z = np.random.default_rng(cfg.seed).uniform(0.0, 1.0, size=nk)

    # the start spreads z to sum n as one group; only its group sums are
    # formed, clipped because rounding can leave a full group an ulp above c
    counts = np.bincount(group).astype(np.float64)
    z_sums = np.bincount(group, z, counts.size)
    a0, r0 = backends.spread(z_sums.sum(), n, nk)
    start = np.clip(a0 * counts + r0 * z_sums, 0.0, counts)
    initial_residual = float(np.linalg.norm(distinct @ start - b))
    sums, iters, gap, converged = backends.pgd(distinct, b, counts, start, float(n))
    if not converged:
        log.warning("solver stopped after %d major cycles with gap %.3g above "
                    "GAP_TOL %.3g", iters, gap, backends.GAP_TOL)
    # the lift spreads each group from its start sum to its optimal sum; the
    # start's map and the group's compose into one pass over z
    a, r = backends.spread(start, sums, counts)
    y = np.take(r * r0, group)
    y *= z
    y += np.take(a + r * a0, group)
    np.clip(y, 0.0, 1.0, out=y)
    return SyntheticLabel(
        soft=y,
        hard=decode_labels(y, n, nk // n),
        residual=float(np.linalg.norm(distinct @ sums - b)),
        epsilon_used=epsilon_used,
        converged=converged,
        iterations=iters,
        initial_residual=initial_residual,
        n=n,
        k=nk // n,
        gap=gap,
        mode=mode,
    )


def prepare(w: WeakSignalMatrix, cfg: SolverConfig | None = None):
    """Reduce the signals, double them into a column cloud and layer its hull.

    Returns ``(w_red, cloud, decomp)``; every pipeline entry point starts here.
    """
    w_red = reduce_signals(w, (cfg or SolverConfig()).chunks)
    cloud = build_A(w_red)
    return w_red, cloud, hull_decompose(cloud)


def run_oua(w: WeakSignalMatrix, cfg: SolverConfig | None = None) -> SyntheticLabel:
    """Full pipeline: reduce, layer the hull, anneal the target, solve."""
    cfg = cfg or SolverConfig()
    w_red, cloud, decomp = prepare(w, cfg)
    tv = anneal_b(w_red, cloud, decomp, cfg)
    return _solve(tv.b, w.n, cloud.groups, cfg, epsilon_used=tv.epsilon)
