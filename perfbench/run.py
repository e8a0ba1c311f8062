#!/usr/bin/env python3
"""Pipeline benchmark for onionlabel: run_oua end to end, or split by layer.

    python3 perfbench/run.py --workload anneal-fine --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload hull-dense --seed 0 --seconds 50 --trace 1
    python3 perfbench/run.py --trace 1 --spec n=500,k=2,m=10,accuracy=0.8,abstain=0.3,seed=0

Run from a source checkout: the package is imported from ``src/`` beside
this directory, never from an installed copy.  Each instance is generated
from the seed with ``SynthSpec``/``generate_votes``, written as a vote CSV
and loaded back with ``load_pws_matrix``; only public functions are called.
One process, one instance after another, no threads of its own.  Instances
are run until the next one would end after ``--seconds``.

``--trace 0`` times the workload's calls untraced and prints the end-to-end
metrics of ``BENCHMARK.json``; ``setup_s`` is measured in fresh
interpreters, twice on each instance's CSV before it is labelled, so its
samples spread over the run as ``label_s``'s do.  ``--trace 1`` replays
``run_oua`` stage by stage under spans and prints the per-layer metrics; the
spans are written to ``.perfbench_out/`` when the pass ends.  Every value is
the median over the run's instances.  Both modes check every output outside
the timers and print ``failed_frac``, the share of calls that raised or
failed a check; it also reaches the JSON result as ``failed``/``attempted``,
not as a metric, since it is 0 when all is well.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread keeps timings steady on a small shared machine.  It must be
# set before numpy is imported; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SEED_STRIDE, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # fresh-interpreter set-up probes per instance


def import_program() -> None:
    """Put the checkout's ``src/`` first on sys.path; refuse any other copy."""
    pkg = SRC / "onionlabel"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no onionlabel sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import onionlabel

    if Path(onionlabel.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported onionlabel from {onionlabel.__file__}, not {pkg}")


def parse_spec(text: str) -> tuple[Workload, int]:
    """``n=..,k=..,m=..[,accuracy=..][,abstain=..][,seed=..]``, default config."""
    fields = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep or key not in ("n", "k", "m", "accuracy", "abstain", "seed"):
            raise ValueError(f"bad --spec item {item!r}")
        fields[key] = value
    missing = {"n", "k", "m"} - fields.keys()
    if missing:
        raise ValueError(f"--spec needs {', '.join(sorted(missing))}")
    wl = Workload(
        name="spec", n=int(fields["n"]), k=int(fields["k"]), m=int(fields["m"]),
        calls=("oua", "mv"),
        accuracy=float(fields.get("accuracy", 0.8)),
        abstain=float(fields.get("abstain", 0.3)),
    )
    return wl, int(fields.get("seed", 0))


def metric_units(kind: str) -> dict:
    """Metric names and units, in order, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", help="with --trace 1, trace one instance of this "
                        "SynthSpec instead of a workload: n=..,k=..,m=..[,accuracy=..]"
                        "[,abstain=..][,seed=..], with the default SolverConfig")
    args = parser.parse_args(argv)
    if args.spec:
        if not args.trace:
            parser.error("--spec needs --trace 1")
        try:
            wl, seed = parse_spec(args.spec)
        except ValueError as exc:
            parser.error(str(exc))
        max_instances = 1
    elif args.workload:
        wl, seed, max_instances = WORKLOADS[args.workload], args.seed, None
    else:
        parser.error("give --workload or --spec")

    import_program()
    from onionlabel import SolverConfig

    from measure import Instance, timed_instance, traced_instance
    from tracing import Tracer

    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    cfg = SolverConfig() if wl.alpha is None else SolverConfig(alpha=wl.alpha)
    tracer = Tracer()
    setups, per = [], []
    while max_instances is None or len(per) < max_instances:
        t0 = time.perf_counter()
        inst = Instance(wl, seed + SEED_STRIDE * len(per), WORK)
        if args.trace:
            per.append(traced_instance(inst, cfg, tracer))
        else:
            setups += [inst.probe_setup(SRC) for _ in range(SETUP_PROBES)]
            per.append(timed_instance(inst, cfg))
        per[-1]["wall_s"] = time.perf_counter() - t0
        if time.perf_counter() - start + statistics.median(r["wall_s"] for r in per) \
                > args.seconds:
            break

    attempted = sum(r["attempted"] for r in per)
    failed = sum(r["failed"] for r in per)
    problems = [p for r in per for p in r["problems"]]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    info = {
        "workload": wl.name, "layer": wl.layer, "held_out_seed": wl.held_out_seed,
        "seed": seed, "instances": len(per),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "attempted": attempted, "failed": failed,
    }
    print(" ".join(f"{k}={v}" for k, v in info.items()))

    if args.trace:
        traced = [r["layers"] for r in per if "layers" in r]
        if not traced:
            sys.exit("perfbench: no instance could be traced")
        units = metric_units("per_layer")
        values = {name: [t[name] for t in traced] for name in units
                  if name != "trace.instances"}
        values["trace.instances"] = [len(traced)]
        spans_path = WORK / f"trace-{wl.name}-s{seed}.json"
        spans_path.write_text(json.dumps({"info": info, "spans": tracer.spans}))
        print(f"{len(tracer.spans)} spans written to {spans_path}")
        print(f"|H1| from hull_decompose: {[t['hull.h1'] for t in traced]}, "
              f"from HiGHS: {[t['hull.oracle_h1'] for t in traced]}")
    else:
        units = metric_units("end_to_end")
        values = {
            "setup_s": setups,
            "label_s": [r["label_s"] for r in per],
            "suite_s": [r["suite_s"] for r in per],
            "accuracy": [r["accuracy"] for r in per if "accuracy" in r],
            "rel_residual": [r["rel_residual"] for r in per if "rel_residual" in r],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        print("label_s per instance: " + " ".join(f"{v:.3f}" for v in values["label_s"]))
    metrics = {name: statistics.median(values[name]) for name in units}
    for name, value in metrics.items():
        print(f"{name:>24} {value:.6g} {units[name]} (median of {len(values[name])})")
    print(f"{'failed_frac':>24} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} calls)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
