"""Command-line interface.

Subcommands: label, eval, inspect-hull, synth, ablate, sweep.  Exit codes:
0 on success (a non-converged solve still exits 0 and is flagged in the
artifact), 2 on input/parse errors, 3 on annealing failures and on hull LPs
that exhaust their pivot budget.  Every artifact written to disk references
the run manifest produced next to it.  Log level comes from the
``ONIONLABEL_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .hull import PivotBudgetError, safe_region_status
from .metrics import accuracy, f1
from .signals import MAX_CHUNKS, LabelVector, WeakSignalMatrix, load_pws_matrix
from .solver import (
    AnnealingError,
    SolverConfig,
    _target_at_bound,
    prepare,
    run_oua,
)
from .synth import (
    SynthSpec,
    generate_votes,
    run_ablation,
    sweep,
    write_sweep_csv,
)

log = logging.getLogger("onionlabel.cli")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ANNEAL = 3

# --config keys and flags are the SolverConfig fields, each an int or a float
_CONFIG_KEYS = {
    f.name: int if f.type in (int, "int") else float
    for f in dataclasses.fields(SolverConfig)
}


def _read_config(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment."""
    out: dict = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            parse = _CONFIG_KEYS[key]
            try:
                out[key] = parse(val)
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(f"{path}:{ln}: {key} must be {kind}, got {val!r}") from None
    return out


def _build_config(args) -> SolverConfig:
    """Defaults, overridden by --config file, overridden by flags."""
    merged = _read_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        v = getattr(args, key)
        if v is not None:
            merged[key] = v
    return SolverConfig(**merged)


def _dump_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _manifest_path(out: str) -> Path:
    return Path(out).with_suffix(".manifest.json")


def _write_manifest(out: str, cfg: SolverConfig, inputs: dict, shape: dict) -> Path:
    path = _manifest_path(out)
    doc = {
        "command": " ".join(sys.argv) if sys.argv else "onionlabel",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": inputs,
        "shape": shape,
        "config": dataclasses.asdict(cfg),
        "outputs": [str(out)],
        "version": __version__,
    }
    _dump_json(doc, str(path))
    return path


def _load_weak(args) -> WeakSignalMatrix:
    return load_pws_matrix(args.weak_labels, args.n, args.k)


def _write_label(args, pipeline) -> int:
    """Run ``pipeline(w, cfg)`` on the weak labels; write its artifact."""
    cfg = _build_config(args)
    w = _load_weak(args)
    label = pipeline(w, cfg)
    doc = label.to_dict()
    if args.out:
        manifest = _write_manifest(
            args.out, cfg,
            inputs={"weak_labels": str(args.weak_labels)},
            shape={"n": w.n, "k": w.k, "m": w.m},
        )
        doc["manifest"] = manifest.name
        _dump_json(doc, args.out)
    else:
        doc["manifest"] = None
        _dump_json(doc, None)
    return EXIT_OK


def cmd_label(args) -> int:
    return _write_label(args, run_oua)


def cmd_ablate(args) -> int:
    return _write_label(args, run_ablation)


def _read_truth(path: str) -> list[int]:
    labels = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{ln}: expected an integer class, got {line!r}")
    if not labels:
        raise ValueError(f"{path}: no labels")
    return labels


def _read_pred(path: str) -> list[int]:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        hard = doc.get("hard")
        if not isinstance(hard, list):
            raise ValueError(f"{path}: artifact JSON lacks a 'hard' list")
        for i, v in enumerate(hard):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{path}: 'hard' entry {i} is not an integer class: {v!r}")
        return hard
    return _read_truth(path)


def cmd_eval(args) -> int:
    pred_hard = _read_pred(args.pred)
    truth_hard = _read_truth(args.truth)
    if len(pred_hard) != len(truth_hard):
        raise ValueError(
            f"length mismatch: {len(pred_hard)} predictions vs {len(truth_hard)} labels"
        )
    k = max(max(pred_hard), max(truth_hard), 2)
    pred = LabelVector(hard=pred_hard, k=k)
    truth = LabelVector(hard=truth_hard, k=k)
    report = f1(pred, truth) if args.metric == "f1" else accuracy(pred, truth)
    _dump_json(report.to_dict(), args.out)
    return EXIT_OK


def cmd_inspect_hull(args) -> int:
    cfg = _build_config(args)
    w = _load_weak(args)
    cloud, decomp = prepare(w, cfg)
    tv = _target_at_bound(w, cloud)
    status = safe_region_status(tv, w.n, decomp, cloud)
    doc = {
        "h1_size": int(decomp.h1.size),
        "h2_size": cloud.n_points - decomp.h1.size,  # every column not named in h1
        "status_at_eps_max": status.value,
        "vertex_lps": decomp.vertex_lps,
        "vertex_pivots": decomp.vertex_pivots,
        "vertex_certified": decomp.vertex_certified,
    }
    _dump_json(doc, args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    balance = None
    if args.class_balance:
        balance = tuple(float(tok) for tok in args.class_balance.split(","))
    spec = SynthSpec(
        n=args.n,
        k=args.k,
        m=args.m,
        signal_accuracy=args.accuracy,
        abstain_rate=args.abstain,
        class_balance=balance,
        seed=args.seed if args.seed is not None else 0,
    )
    votes, truth = generate_votes(spec)
    weak_path = f"{args.out_prefix}.csv"
    truth_path = f"{args.out_prefix}.truth.txt"
    # the loader's alphabet, indexed by vote: {0, +1, -1} for k=2, 0..k otherwise
    tokens = np.array(["0", "+1", "-1"] if spec.k == 2 else [str(c) for c in range(spec.k + 1)])
    with open(weak_path, "w") as fh:
        for row in votes:
            fh.write(",".join(tokens[row].tolist()) + "\n")
    with open(truth_path, "w") as fh:
        fh.writelines(f"{int(c)}\n" for c in truth.hard)
    log.info("wrote %s and %s", weak_path, truth_path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    with open(args.specs) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{args.specs}: expected a JSON list of spec objects")
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"{args.specs}: spec {i} is not a JSON object: {entry!r}")
        entry = dict(entry)
        if "seed" not in entry:
            # counter-based fan-out keeps cells reproducible and independent
            entry["seed"] = int(
                np.random.SeedSequence([cfg.seed, i]).generate_state(1)[0]
            )
        try:
            specs.append(SynthSpec(**entry))
        except (TypeError, ValueError) as exc:  # unknown, missing or bad keys
            raise ValueError(f"{args.specs}: spec {i}: {exc}") from None
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    rows = sweep(specs, methods, cfg)
    write_sweep_csv(rows, args.out)
    return EXIT_OK


def _add_common_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None, help="annealing step size")
    p.add_argument("--chunks", type=int, default=None,
                   help=f"signal chunks after reduction, 1..{MAX_CHUNKS}")
    p.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    p.add_argument("--config", default=None, help="flat key=value config file")


def _add_weak_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weak-labels", required=True, help="vote CSV or JSON signal file")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--k", type=int, required=True, help="number of classes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onionlabel",
        description="Aggregate weak classification signals into labels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="run the safe-region label solver")
    _add_weak_flags(p)
    _add_common_solver_flags(p)
    p.add_argument("--out", default=None, help="artifact JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("eval", help="score predictions against a truth file")
    p.add_argument("--pred", required=True, help="label artifact JSON or hard-label text file")
    p.add_argument("--truth", required=True, help="one class (1..k) per line")
    p.add_argument("--metric", choices=("accuracy", "f1"), default="accuracy")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-hull",
                       help="report hull layer sizes, start status and vertex-pass work")
    _add_weak_flags(p)
    _add_common_solver_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect_hull)

    p = sub.add_parser("synth", help="write a planted weak-label CSV and truth file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--accuracy", type=float, required=True)
    p.add_argument("--abstain", type=float, default=0.0)
    p.add_argument("--class-balance", default=None, help="comma-separated class weights")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="solve with the target pushed inside the inner hull")
    _add_weak_flags(p)
    _add_common_solver_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="run methods over a JSON list of synthetic specs")
    p.add_argument("--specs", required=True, help="JSON list of instance spec objects")
    p.add_argument("--methods", default="oua,mv,wmv", help="comma-separated method names")
    _add_common_solver_flags(p)
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("ONIONLABEL_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except AnnealingError as exc:
        print(f"onionlabel: annealing failed: {exc}", file=sys.stderr)
        return EXIT_ANNEAL
    except PivotBudgetError as exc:
        print(f"onionlabel: {exc}", file=sys.stderr)
        return EXIT_ANNEAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"onionlabel: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())
