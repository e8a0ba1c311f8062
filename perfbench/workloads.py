"""Workload table for the pipeline benchmark.

Every workload is a planted instance family (``SynthSpec``), a solver
config, and the public calls made on each instance.  Instance ``i`` of a run
with seed ``s`` uses ``SynthSpec(seed=s + SEED_STRIDE * i)``, so instance 0
of seed ``s`` is the planted instance with seed ``s`` itself.

The two workloads timed in ``BENCHMARK.json`` use n large enough for the
m = 5 column cloud to saturate at its 243 lattice points.  Their geometry,
annealed eps and PGD iteration counts then barely move from seed to seed,
which keeps the run medians steady.  ``hull-dense`` is the hull-bound
instance of the planted suite.  Its cost is dominated by phase-1 LPs that
exhaust their pivot budget, and their count per instance varies from 0 to 6,
so a run of a few instances cannot give a steady median: it is traced
(``--trace 1``) but not timed.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    m: int
    calls: tuple[str, ...]  # subset of ("oua", "ablation", "mv"), in call order
    alpha: float | None = None  # None: SolverConfig's default
    accuracy: float = 0.8
    abstain: float = 0.3
    layer: str = ""  # the stage that takes most of run_oua's time
    held_out_seed: int | None = None  # kept back to confirm a claimed gain


WORKLOADS = {
    w.name: w
    for w in (
        # ~800 eps steps, each a phase-1 LP or two against the inner hull.
        Workload("anneal-fine", n=5000, k=2, m=5,
                 calls=("oua", "ablation", "mv"), alpha=0.0005,
                 layer="solver.anneal_b", held_out_seed=97),
        # nk = 40,000: ~700 PGD iterations over the wide system.
        Workload("solve-wide", n=20000, k=2, m=5,
                 calls=("oua", "mv"),
                 layer="solver.solve_labels", held_out_seed=97),
        # ~430 irregular distinct columns; all-pairs hull LPs, some budget-hit.
        Workload("hull-dense", n=200, k=3, m=10,
                 calls=("oua", "ablation", "mv"),
                 layer="hull.hull_decompose", held_out_seed=97),
    )
}
