"""Constrained least-squares recovery of soft labels from weak signals.

Pipeline: reduce the signals to at most five rows, double them into a column
cloud, split the cloud into hull layers, then pick the target vector
``b_i = -n k eps + w_i . 1 + n`` by annealing the assumed error rate ``eps``
downward from its upper bound ``2/k - 2/k**2`` until ``b/n`` leaves the inner
hull.  The annealing walks a grid of ``alpha`` steps; since ``b/n`` moves on a
line and the inner hull is convex, the first grid point outside it is found
by bisection rather than by testing every step.  The soft labels solve
``min ||A y - b||_2`` over {y in [0, 1]^(nk) : sum(y) = n} exactly.  The
objective depends on y only through the label sums of identical columns, so
the solve runs over the distinct columns (``backends.pgd``: proximal point
with semismooth Newton, stopped by a certified duality gap), and the optimal
sums are then spread over a seeded uniform start projected onto that set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .hull import (
    ColumnCloud,
    HullDecomposition,
    SafeRegionStatus,
    _unique_columns,
    build_A,
    hull_decompose,
    safe_region_status,
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

    ``chunks`` is the number of signals left after ``reduce_signals``.
    ``max_iters`` is the budget of Newton iterations of the label solve and
    ``conv_tol`` the certified relative duality gap at which it stops (see
    ``SyntheticLabel.gap``).  All randomness flows from ``seed``.
    """

    alpha: float = 0.01
    max_iters: int = 20_000
    conv_tol: float = 1e-6
    seed: int = 0
    max_anneal_steps: int = 10_000
    chunks: int = DEFAULT_CHUNKS

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.conv_tol <= 0:
            raise ValueError("conv_tol must be positive")
        if self.max_anneal_steps < 1:
            raise ValueError("max_anneal_steps must be >= 1")
        if self.chunks < 1:
            raise ValueError("chunks must be >= 1")


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
    ``gap <= conv_tol``.
    """

    soft: np.ndarray  # (n*k,) in [0, 1]
    hard: np.ndarray  # (n,) classes 1..k
    residual: float  # ||A y - b||_2 without the sum row
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
    row_sums = w.values.sum(axis=1)
    b = -w.n * w.k * eps + row_sums + w.n
    return TargetVector(b=b, epsilon=float(eps))


def anneal_b(w: WeakSignalMatrix, cloud: ColumnCloud, decomp: HullDecomposition,
             cfg: SolverConfig | None = None) -> TargetVector:
    """Lower eps from its upper bound until b/n escapes the inner hull.

    The candidate rates form the step grid ``eps_0 = 2/k - 2/k**2``,
    ``eps_{j+1} = max(0, eps_j - alpha)``, ending at the first 0 or at index
    ``max_anneal_steps``; each step raises every b_i by ``n k alpha``, so the
    targets b/n walk along one line.  The answer is the first grid point whose
    status is not INSIDE_H2: SAFE returns its target, OUTSIDE_H1 raises
    HullInconsistencyError.  When the whole grid stays inside, the last grid
    value decides: 0 raises NotSafeAtZeroError, anything else the
    ``max_anneal_steps`` AnnealingError.

    Index 0 is probed first and settles the run unless it is INSIDE_H2.  The
    line meets the convex inner hull Conv(I) in a segment, so once index 0 is
    inside, the inside grid indices form a prefix, and bisection finds its
    end in about log2(grid length) membership tests instead of walking it.
    """
    cfg = cfg or SolverConfig()
    grid = [epsilon_upper_bound(w.k)]
    while grid[-1] > 0.0 and len(grid) <= cfg.max_anneal_steps:
        grid.append(max(0.0, grid[-1] - cfg.alpha))

    probes = 0

    def probe(j: int):
        nonlocal probes
        probes += 1
        tv = init_b(w, grid[j])
        return tv, safe_region_status(tv, w.n, decomp, cloud)

    # invariant: index lo is INSIDE_H2 and index hi is not (len(grid): none is)
    tv, status = probe(0)
    lo, hi = 0, len(grid)
    if status is not SafeRegionStatus.INSIDE_H2:
        hi = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_tv, mid_status = probe(mid)
        if mid_status is SafeRegionStatus.INSIDE_H2:
            lo = mid
        else:
            hi, tv, status = mid, mid_tv, mid_status
    reached = min(hi, len(grid) - 1)
    log.debug("anneal: %s at eps=%.6f, grid index %d of %d, %d probes",
              status.value, grid[reached], reached, len(grid), probes)
    if status is SafeRegionStatus.SAFE:
        return tv
    if status is SafeRegionStatus.OUTSIDE_H1:
        raise HullInconsistencyError(
            f"b/n fell outside Conv(H1) at eps={grid[hi]:.6f}; "
            "the annealing step overshot the safe shell"
        )
    if grid[-1] <= 0.0:
        raise NotSafeAtZeroError(
            "b/n is still inside the inner hull at eps=0; no safe target exists"
        )
    raise AnnealingError(
        f"no safe target within {cfg.max_anneal_steps} annealing steps"
    )


def augment_system(cloud: ColumnCloud, b: TargetVector, n: int):
    """Stack the all-ones row / n onto (A, b) to carry sum(y) = n."""
    if b.b.shape != (cloud.dim,):
        raise ValueError("target dimension does not match the cloud")
    A_aug = np.vstack([cloud.matrix, np.ones((1, cloud.n_points))])
    b_aug = np.append(b.b, float(n))
    return A_aug, b_aug


def decode_labels(soft: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per-point argmax over class blocks; ties go to the lowest class."""
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (n * k,):
        raise ValueError(f"soft labels must have length n*k = {n * k}")
    return soft.reshape(k, n).argmax(axis=0).astype(np.int64) + 1


def solve_labels(a_aug: np.ndarray, b_aug: np.ndarray, cfg: SolverConfig | None = None,
                 y0: np.ndarray | None = None, epsilon_used: float = float("nan"),
                 mode: str = "safe_region") -> SyntheticLabel:
    """Exact capped least squares on the augmented system.

    Minimizes ||A y - b|| over {y in [0,1]^(nk), sum(y) = n}, where the last
    row of the augmented system is the sum row.  Columns of A with equal
    values are grouped, ``backends.pgd`` finds optimal label sums per group,
    and each group's sum is then spread over the seeded Uniform(0,1) draw (or
    ``y0`` when supplied) projected onto the feasible set, by one shift per
    group.  The answer is therefore exactly feasible, optimal up to the
    reported gap, and depends on the seed where the optimum is not unique.
    ``converged`` is False when ``max_iters`` Newton iterations end above
    ``conv_tol``.  The reported residuals exclude the sum row;
    ``initial_residual`` is taken at the projected start.
    """
    cfg = cfg or SolverConfig()
    a_aug = np.ascontiguousarray(a_aug, dtype=np.float64)
    b_aug = np.ascontiguousarray(b_aug, dtype=np.float64)
    if a_aug.ndim != 2 or b_aug.shape != (a_aug.shape[0],):
        raise ValueError("augmented system shapes are inconsistent")
    nk = a_aug.shape[1]
    n = int(round(b_aug[-1]))
    if n < 1 or nk % n:
        raise ValueError("sum row of the augmented system must equal n with n | nk")
    k = nk // n

    if y0 is None:
        rng = np.random.default_rng(cfg.seed)
        y0 = rng.uniform(0.0, 1.0, size=nk)
    else:
        y0 = np.asarray(y0, dtype=np.float64)
        if y0.shape != (nk,):
            raise ValueError(f"y0 must have length {nk}")

    A, b = a_aug[:-1], b_aug[:-1]
    y_start = backends.project_capped_simplex(y0, float(n))
    initial_residual = float(np.linalg.norm(A @ y_start - b))

    distinct, _, group = _unique_columns(A)
    counts = np.bincount(group).astype(np.float64)
    sums, iters, gap, converged = backends.pgd(
        distinct, b, counts, np.bincount(group, y_start), float(n),
        cfg.conv_tol, cfg.max_iters,
    )
    if not converged:
        log.warning("solver stopped after its budget of %d Newton iterations with "
                    "gap %.3g above conv_tol %.3g", cfg.max_iters, gap, cfg.conv_tol)
    y, _ = backends.shift_clip(y_start, sums, groups=group)
    residual = float(np.linalg.norm(A @ y - b))
    return SyntheticLabel(
        soft=y,
        hard=decode_labels(y, n, k),
        residual=residual,
        epsilon_used=epsilon_used,
        converged=converged,
        iterations=iters,
        initial_residual=initial_residual,
        n=n,
        k=k,
        gap=gap,
        mode=mode,
    )


def run_oua(w: WeakSignalMatrix, cfg: SolverConfig | None = None) -> SyntheticLabel:
    """Full pipeline: reduce, layer the hull, anneal the target, solve."""
    cfg = cfg or SolverConfig()
    w_red = reduce_signals(w, cfg.chunks)
    cloud = build_A(w_red)
    decomp = hull_decompose(cloud)
    tv = anneal_b(w_red, cloud, decomp, cfg)
    a_aug, b_aug = augment_system(cloud, tv, w.n)
    return solve_labels(a_aug, b_aug, cfg, epsilon_used=tv.epsilon)
