"""Command-line interface: subcommands, exit codes, artifacts, manifests."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import onionlabel
import onionlabel.hull
from onionlabel import SolverConfig, __version__, backends, cli
from onionlabel.cli import main
from onionlabel.synth import SynthSpec, generate_votes, sweep

# prob-format signals whose target path never leaves the inner hull at alpha 0.25
STUCK_DOC = {
    "n": 4, "k": 2, "format": "prob",
    "rows": [
        [0.0, 1.0, 0.0, 1.0, 0.05, 0.05, 0.05, 0.95],
        [0.0, 0.0, 1.0, 1.0, 0.05, 0.05, 0.05, 0.95],
    ],
}


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def synth_files(tmp_path):
    """A small planted instance on disk: votes CSV + truth file."""
    prefix = tmp_path / "inst"
    rc = run_cli(
        "synth", "--n", "40", "--k", "2", "--m", "6",
        "--accuracy", "0.9", "--abstain", "0.2", "--seed", "3",
        "--out-prefix", str(prefix),
    )
    assert rc == 0
    return tmp_path, f"{prefix}.csv", f"{prefix}.truth.txt"


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_binary_alphabet(synth_files):
    _, weak_path, truth_path = synth_files
    tokens = set()
    with open(weak_path) as fh:
        for line in fh:
            tokens.update(tok.strip() for tok in line.strip().split(","))
    assert tokens <= {"0", "+1", "-1"}
    with open(truth_path) as fh:
        labels = [int(line) for line in fh]
    assert len(labels) == 40 and set(labels) <= {1, 2}


def test_synth_multiclass_alphabet(tmp_path):
    prefix = tmp_path / "mc"
    rc = run_cli(
        "synth", "--n", "10", "--k", "3", "--m", "2",
        "--accuracy", "0.8", "--out-prefix", str(prefix),
    )
    assert rc == 0
    tokens = set()
    with open(f"{prefix}.csv") as fh:
        for line in fh:
            tokens.update(tok.strip() for tok in line.strip().split(","))
    assert tokens <= {"0", "1", "2", "3"}


def test_synth_is_deterministic(tmp_path):
    args = ["synth", "--n", "12", "--k", "2", "--m", "3",
            "--accuracy", "0.8", "--seed", "7"]
    assert run_cli(*args, "--out-prefix", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out-prefix", str(tmp_path / "b")) == 0
    a = (tmp_path / "a.csv").read_text()
    b = (tmp_path / "b.csv").read_text()
    assert a == b


@pytest.mark.parametrize("k", [2, 3])
def test_synth_csv_bytes_match_per_entry_writer(tmp_path, k):
    prefix = tmp_path / "w"
    assert run_cli("synth", "--n", "300", "--k", str(k), "--m", "4", "--accuracy", "0.7",
                   "--abstain", "0.3", "--seed", "5", "--out-prefix", str(prefix)) == 0
    votes, _ = generate_votes(SynthSpec(n=300, k=k, m=4, signal_accuracy=0.7,
                                        abstain_rate=0.3, seed=5))
    # the per-entry writer the token lookup replaced
    symbols = {0: "0", 1: "+1", 2: "-1"}
    expected = "".join(
        ",".join(symbols[int(v)] if k == 2 else str(int(v)) for v in row) + "\n"
        for row in votes
    )
    assert (tmp_path / "w.csv").read_bytes() == expected.encode()


def test_synth_class_balance(tmp_path, capsys):
    prefix = tmp_path / "bal"
    assert run_cli("synth", "--n", "200", "--k", "2", "--m", "3", "--accuracy", "0.8",
                   "--class-balance", "0.9,0.1", "--seed", "4",
                   "--out-prefix", str(prefix)) == 0
    _, truth = generate_votes(SynthSpec(n=200, k=2, m=3, signal_accuracy=0.8,
                                        class_balance=(0.9, 0.1), seed=4))
    labels = [int(line) for line in (tmp_path / "bal.truth.txt").read_text().split()]
    assert labels == truth.hard.tolist() and labels.count(1) > 150
    # NaN passes a "< 0" test and failed later inside numpy's sampler
    assert run_cli("synth", "--n", "20", "--k", "2", "--m", "3", "--accuracy", "0.8",
                   "--class-balance", "nan,1", "--out-prefix", str(prefix)) == 2
    assert "class_balance must be nonnegative and sum to 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# label


def test_label_stdout_artifact(synth_files, capsys):
    _, weak_path, _ = synth_files
    rc = run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 40 and doc["k"] == 2
    assert doc["mode"] == "safe_region"
    assert doc["manifest"] is None
    assert len(doc["soft"]) == 80 and len(doc["hard"]) == 40
    assert set(doc["hard"]) <= {1, 2}
    assert 0.0 <= doc["epsilon_used"] <= 0.5
    soft = np.array(doc["soft"])
    assert soft.min() >= 0.0 and soft.max() <= 1.0
    assert abs(soft.sum() - 40) <= 40 * 1e-6


def test_label_stdout_is_stable_key_ordered(synth_files, capsys):
    _, weak_path, _ = synth_files
    assert run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2") == 0
    text = capsys.readouterr().out
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_label_writes_artifact_and_manifest(synth_files):
    tmp_path, weak_path, _ = synth_files
    out = tmp_path / "labels.json"
    rc = run_cli(
        "label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
        "--seed", "5", "--out", str(out),
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    manifest_path = tmp_path / "labels.manifest.json"
    assert manifest_path.exists()
    assert doc["manifest"] == manifest_path.name
    man = json.loads(manifest_path.read_text())
    assert man["version"] == __version__
    assert man["outputs"] == [str(out)]
    assert man["inputs"]["weak_labels"] == weak_path
    assert man["shape"] == {"n": 40, "k": 2, "m": 6}
    assert man["config"]["seed"] == 5
    assert man["config"]["chunks"] == 5
    assert "timestamp" in man and "command" in man
    # the artifact carries the solve's certificate
    assert doc["converged"] is True
    assert 0.0 <= doc["gap"] <= backends.GAP_TOL


def test_label_warns_with_gap_when_solve_budget_runs_out(synth_files, caplog, monkeypatch):
    tmp_path, weak_path, _ = synth_files
    monkeypatch.setattr(backends, "MAX_CYCLES", 1)
    out = tmp_path / "short.json"
    rc = run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                 "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["iterations"] == 1
    assert doc["gap"] > 1e-6
    # one event, one line: the solver's warning, not a second copy from the CLI
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    m = re.fullmatch(r"solver stopped after 1 major cycles with gap (\S+) above "
                     r"GAP_TOL 1e-06", warnings[0].getMessage())
    assert m and float(m.group(1)) == pytest.approx(doc["gap"], rel=1e-2)


def test_label_seed_reproducible(synth_files):
    tmp_path, weak_path, _ = synth_files
    out1, out2 = tmp_path / "l1.json", tmp_path / "l2.json"
    base = ["label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
            "--seed", "9"]
    assert run_cli(*base, "--out", str(out1)) == 0
    assert run_cli(*base, "--out", str(out2)) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["soft"] == d2["soft"] and d1["hard"] == d2["hard"]


def test_label_parse_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run_cli("label", "--weak-labels", str(missing), "--n", "4", "--k", "2") == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("+1,0\n")  # row length 2, but n declared 4
    assert run_cli("label", "--weak-labels", str(bad), "--n", "4", "--k", "2") == 2
    assert "onionlabel:" in capsys.readouterr().err
    bad.write_text("+1,0,1e400,-1\n")  # a vote that overflows to infinity
    assert run_cli("label", "--weak-labels", str(bad), "--n", "4", "--k", "2") == 2
    assert "row 0, col 2" in capsys.readouterr().err
    # csv.reader's "field larger than field limit" (131,072 characters) is
    # not a ValueError: it ended in a traceback with exit 1
    bad.write_text("+1,0,-1,0\n" + "1" * 200_000 + ",0,-1,0\n")
    assert run_cli("label", "--weak-labels", str(bad), "--n", "4", "--k", "2") == 2
    assert capsys.readouterr().err.startswith(
        f"onionlabel: {bad}: row 1: field larger than field limit")


@pytest.mark.parametrize("name, text, flags, message", [
    ("w.csv", "+1,0\n+1\n", (), "w.csv: row 1: expected 2 entries, found 1"),
    ("row", "+1,0\n+1\n", (), "row: row 1: expected 2 entries, found 1"),  # a prefix
    ("w.csv", "", (), "w.csv: no signal rows"),  # already names the file
    ("w.json", '{"n": 2, "k": 2, "format": "pws", "rows": [[1, 0], [1]]}', (),
     "w.json: row 1: expected 2 entries, found 1"),
    ("w.json", '{"n": 3, "k": 2, "format": "pws", "rows": [[1, 0]]}', (),
     "w.json: header (n=3, k=2) does not match declared (n=2, k=2)"),
    ("w.json", "{", (), "w.json: Expecting property name enclosed in double quotes: "
                        "line 1 column 2 (char 1)"),
    ("k", "+1,0\n", ("--k", "1"), "k must be >= 2, got 1"),  # a bad flag, not a bad file
    ("w.csv", "+1,0\n", ("--n", "0"), "n must be >= 1, got 0"),
])
def test_load_errors_name_the_file_once(tmp_path, monkeypatch, capsys, name, text, flags,
                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    for command in ("label", "ablate", "inspect-hull"):
        assert run_cli(command, "--weak-labels", name, "--n", "2", "--k", "2", *flags) == 2
        assert capsys.readouterr().err.splitlines() == ["onionlabel: " + message]


@pytest.mark.parametrize("flag, value, message", [
    pytest.param(flag, value, message, id=f"{flag}-{value}")
    for flag, value, message in (
        ("--alpha", "nan", "alpha must be finite and at least 2.2250738585072014e-308, got nan"),
        ("--alpha", "inf", "alpha must be finite and at least 2.2250738585072014e-308, got inf"),
        ("--alpha", "1e-310", "alpha must be finite and at least 2.2250738585072014e-308, "
                              "got 1e-310"),
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    )
])
def test_label_non_finite_alpha_exits_2(synth_files, capsys, flag, value, message):
    # argparse reads "nan" and "-1" happily; SolverConfig must refuse them,
    # naming the setting, before any work is done
    _, weak_path, _ = synth_files
    assert run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                   flag, value) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("chunks = 10e3", "chunks must be an integer, got '10e3'"),
    ("alpha = 1/2", "alpha must be a number, got '1/2'"),
])
def test_config_file_unparsable_value_names_file_line_and_key(synth_files, tmp_path,
                                                              capsys, line, message):
    _, weak_path, _ = synth_files
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# settings\nseed = 3\n{line}\n")
    assert run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                   "--config", str(cfg)) == 2
    assert f"{cfg}:3: {message}" in capsys.readouterr().err


def test_label_json_header_mismatch_exits_2(tmp_path):
    doc = {"n": 4, "k": 2, "format": "pws", "rows": [[1, 1, 1, 1]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert run_cli("label", "--weak-labels", str(path), "--n", "5", "--k", "2") == 2


def test_label_annealing_failure_exits_3(tmp_path, capsys):
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(STUCK_DOC))
    rc = run_cli("label", "--weak-labels", str(path), "--n", "4", "--k", "2",
                 "--alpha", "0.25")
    assert rc == 3
    assert "annealing failed" in capsys.readouterr().err


def test_label_pivot_budget_failure_exits_3(synth_files, capsys, monkeypatch):
    # a hull LP that runs out of pivots is a failed run, not a traceback
    _, weak_path, _ = synth_files

    def exhausted(E, f):
        return np.zeros(E.shape[1]), 7, 1, np.zeros(E.shape[0])

    monkeypatch.setattr(onionlabel.hull, "phase1_simplex", exhausted)
    rc = run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("onionlabel: ") and "pivot budget" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# eval


def test_label_then_eval_accuracy(synth_files, capsys):
    tmp_path, weak_path, truth_path = synth_files
    out = tmp_path / "labels.json"
    assert run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                   "--out", str(out)) == 0
    rc = run_cli("eval", "--pred", str(out), "--truth", truth_path)
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "accuracy"
    assert 0.0 <= report["value"] <= 1.0
    assert report["n"] == 40


def test_eval_f1_from_plain_text(tmp_path, capsys):
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("1\n1\n2\n2\n")
    truth.write_text("1\n2\n1\n2\n")
    rc = run_cli("eval", "--pred", str(pred), "--truth", str(truth),
                 "--metric", "f1")
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "f1" and report["value"] == 0.5


def test_eval_f1_multiclass_exits_2(tmp_path):
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("1\n2\n3\n")
    truth.write_text("1\n2\n3\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth),
                   "--metric", "f1") == 2


def test_eval_length_mismatch_exits_2(tmp_path):
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("1\n2\n")
    truth.write_text("1\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 2


def test_eval_bad_truth_file_exits_2(tmp_path):
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("1\n")
    truth.write_text("banana\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 2


@pytest.mark.parametrize("text, labels", [
    ("1\n\n 2 \n\n", [1, 2]),  # blank lines are skipped
    ("", None),
    ("\n  \n", None),
])
def test_read_truth_skips_blank_lines_and_refuses_an_empty_file(tmp_path, text, labels):
    path = tmp_path / "truth.txt"
    path.write_text(text)
    if labels is None:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no labels$"):
            cli._read_truth(str(path))
    else:
        assert cli._read_truth(str(path)) == labels


def test_eval_bad_pred_artifact_exits_2(tmp_path, capsys):
    pred, truth = tmp_path / "pred.json", tmp_path / "truth.txt"
    truth.write_text("1\n")
    for doc, message in [
        ({"hard": [[1]]}, "'hard' entry 0 is not an integer class: [1]"),
        ({"hard": [1.5]}, "'hard' entry 0 is not an integer class: 1.5"),
        ({"hard": [True]}, "'hard' entry 0 is not an integer class: True"),
        ({"hard": 1}, "artifact JSON lacks a 'hard' list"),
        ({"soft": [1.0]}, "artifact JSON lacks a 'hard' list"),
    ]:
        pred.write_text(json.dumps(doc))
        assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"onionlabel: {pred}: {message}"]


# ---------------------------------------------------------------------------
# inspect-hull


def test_inspect_hull_reports_layers(synth_files, capsys):
    _, weak_path, _ = synth_files
    rc = run_cli("inspect-hull", "--weak-labels", weak_path, "--n", "40", "--k", "2")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"h1_size", "h2_size", "status_at_eps_max",
                        "vertex_lps", "vertex_pivots", "vertex_certified"}
    assert doc["h1_size"] >= 1 and doc["h2_size"] >= 0
    assert doc["h1_size"] + doc["h2_size"] == 80
    assert doc["status_at_eps_max"] in ("INSIDE_H2", "SAFE", "OUTSIDE_H1")
    # the box certificate does not settle this cloud, so every vertex that
    # Qhull proposes is self-checked, all but the last with at least a pivot
    assert doc["vertex_certified"] == 0
    assert doc["vertex_lps"] >= doc["h1_size"] - 1 and doc["vertex_pivots"] >= 1


def test_inspect_hull_dedups_the_cloud_once(synth_files, dedup_calls, capsys):
    _, weak_path, _ = synth_files
    assert run_cli("inspect-hull", "--weak-labels", weak_path, "--n", "40", "--k", "2") == 0
    assert len(dedup_calls) == 1


@pytest.mark.parametrize("k,chunks", [(2, 5), (3, 1), (3, 5), (4, 4)])
def test_inspect_hull_document_is_the_same_from_votes_and_from_prob_rows(tmp_path, capsys,
                                                                         k, chunks):
    # a vote CSV groups the cloud from its votes, a "prob" document with the
    # same values and abstains from the float matrix; the documents agree
    n, m = 120, 11
    prefix = tmp_path / "inst"
    assert run_cli("synth", "--n", str(n), "--k", str(k), "--m", str(m), "--accuracy", "0.7",
                   "--abstain", "0.3", "--seed", "4", "--out-prefix", str(prefix)) == 0
    w = onionlabel.load_pws_matrix(f"{prefix}.csv", n, k)
    rows = np.where(w.abstain, None, w.values).tolist()
    prob = tmp_path / "inst.json"
    prob.write_text(json.dumps({"n": n, "k": k, "format": "prob", "rows": rows}))
    docs = []
    for path in (f"{prefix}.csv", str(prob)):
        assert run_cli("inspect-hull", "--weak-labels", path, "--n", str(n), "--k", str(k),
                       "--chunks", str(chunks)) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["label", "ablate", "inspect-hull", "sweep"])
def test_chunks_above_five_exit_2_before_the_input_is_read(tmp_path, capsys, command, via):
    # the cloud lives in R^<=5: chunks 6 is refused, naming chunks and the
    # bound, before the input file, which does not exist, is opened
    missing = tmp_path / "missing.csv"
    if command == "sweep":
        argv = ["sweep", "--specs", str(missing), "--out", str(tmp_path / "s.csv")]
    else:
        argv = [command, "--weak-labels", str(missing), "--n", "4", "--k", "2"]
    cfg = tmp_path / "run.cfg"
    for chunks, message in ((6, "onionlabel: chunks must be at most 5, the most rows the "
                                "hull takes, got 6"),
                            (5, f"onionlabel: [Errno 2] No such file or directory: "
                                f"'{missing}'")):
        cfg.write_text(f"chunks = {chunks}\n")
        extra = ["--chunks", str(chunks)] if via == "flag" else ["--config", str(cfg)]
        assert run_cli(*argv, *extra) == 2
        assert capsys.readouterr().err.splitlines() == [message]


# ---------------------------------------------------------------------------
# ablate


def test_ablate_artifact_mode(synth_files, capsys):
    _, weak_path, _ = synth_files
    rc = run_cli("ablate", "--weak-labels", weak_path, "--n", "40", "--k", "2")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "ablation"
    assert doc["epsilon_used"] == pytest.approx(0.5)


def test_ablate_without_inner_hull_exits_3(tmp_path):
    doc = {"n": 2, "k": 2, "format": "prob",
           "rows": [[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert run_cli("ablate", "--weak-labels", str(path), "--n", "2", "--k", "2") == 3


# ---------------------------------------------------------------------------
# config file handling


def test_config_file_and_flag_precedence(synth_files):
    tmp_path, weak_path, _ = synth_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.2   # fat steps\nchunks = 3\nseed = 11\n")
    out = tmp_path / "out.json"
    rc = run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                 "--config", str(cfg), "--alpha", "0.1", "--out", str(out))
    assert rc == 0
    man = json.loads((tmp_path / "out.manifest.json").read_text())
    assert man["config"]["alpha"] == 0.1  # flag beats file
    assert man["config"]["chunks"] == 3  # file beats default
    assert man["config"]["seed"] == 11


def test_config_file_sets_every_solver_field(synth_files):
    tmp_path, weak_path, _ = synth_files
    values = {"alpha": 0.05, "seed": 4, "chunks": 4}
    assert set(values) == {f.name for f in dataclasses.fields(SolverConfig)}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {v}\n" for key, v in values.items()))
    out = tmp_path / "all.json"
    label = ["label", "--weak-labels", weak_path, "--n", "40", "--k", "2", "--config", str(cfg)]
    assert run_cli(*label, "--out", str(out)) == 0
    man = json.loads((tmp_path / "all.manifest.json").read_text())
    assert man["config"] == values
    cfg.write_text("chunks = 0\n")
    assert run_cli(*label) == 2


@pytest.mark.parametrize("line", ["warp_factor = 9", "max_anneal_steps = 400",
                                  "max_iters = 3000", "conv_tol = nan"],
                         ids=lambda line: line.split()[0])
def test_config_unknown_key_exits_2(synth_files, capsys, line):
    # max_anneal_steps bounded the stepped anneal grid, which is gone; the
    # label solve's cycle budget and gap threshold are constants
    tmp_path, weak_path, _ = synth_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    assert run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                   "--config", str(cfg)) == 2
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err


def test_config_bad_line_exits_2(synth_files):
    tmp_path, weak_path, _ = synth_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha\n")
    assert run_cli("label", "--weak-labels", weak_path, "--n", "40", "--k", "2",
                   "--config", str(cfg)) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_end_to_end(tmp_path):
    specs = [
        {"n": 20, "k": 2, "m": 4, "signal_accuracy": 0.9, "abstain_rate": 0.1},
        {"n": 20, "k": 3, "m": 4, "signal_accuracy": 0.9, "seed": 5},
    ]
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps(specs))
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep", "--specs", str(spec_path), "--methods", "oua,mv,wmv",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance_id,method,metric,value,epsilon_used,residual,wall_ms"
    assert len(lines) == 1 + 2 * 3
    # auto-filled seeds are deterministic: same invocation, same values
    out2 = tmp_path / "sweep2.csv"
    assert run_cli("sweep", "--specs", str(spec_path), "--methods", "oua,mv,wmv",
                   "--seed", "1", "--out", str(out2)) == 0
    strip_wall = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
    assert strip_wall(out.read_text()) == strip_wall(out2.read_text())


def test_sweep_spec_with_class_balance(tmp_path, capsys):
    spec = {"n": 200, "k": 2, "m": 4, "signal_accuracy": 0.7,
            "class_balance": [0.9, 0.1], "seed": 5}
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([spec]))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--specs", str(spec_path), "--methods", "mv",
                   "--out", str(out)) == 0
    [row] = sweep([SynthSpec(**dict(spec, class_balance=(0.9, 0.1)))], ["mv"])
    assert out.read_text().splitlines()[1].split(",")[3] == f"{row['value']:.10g}"
    spec_path.write_text(json.dumps([dict(spec, class_balance=[0.5, 0.6])]))
    assert run_cli("sweep", "--specs", str(spec_path), "--out", str(out)) == 2
    assert "class_balance must be nonnegative and sum to 1" in capsys.readouterr().err


def test_sweep_rejects_non_list_specs(tmp_path):
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps({"n": 5}))
    assert run_cli("sweep", "--specs", str(spec_path),
                   "--out", str(tmp_path / "s.csv")) == 2
    spec_path.write_text("{not json")
    assert run_cli("sweep", "--specs", str(spec_path),
                   "--out", str(tmp_path / "s.csv")) == 2


def test_sweep_rejects_bad_spec_entries(tmp_path, capsys):
    spec_path = tmp_path / "specs.json"
    good = {"n": 20, "k": 2, "m": 4, "signal_accuracy": 0.9}
    missing_n = {key: v for key, v in good.items() if key != "n"}
    for specs, message in [
        ([5], "spec 0 is not a JSON object: 5"),
        ([good, dict(good, warp=1)], "spec 1: SynthSpec.__init__() got an "
                                     "unexpected keyword argument 'warp'"),
        ([missing_n], "spec 0: SynthSpec.__init__() missing 1 required "
                      "positional argument: 'n'"),
        ([good, dict(good, seed=None)], "spec 1: seed must be an integer >= 0, got None"),
        ([dict(good, seed=1.5)], "spec 0: seed must be an integer >= 0, got 1.5"),
        ([dict(good, class_balance=0.5)], "spec 0: class_balance must be a sequence of "
                                          "k = 2 weights, got 0.5"),
        ([dict(good, n=20.5)], "spec 0: n must be an integer >= 1, got 20.5"),
        ([dict(good, k=2.0)], "spec 0: k must be an integer >= 2, got 2.0"),
        ([dict(good, m=True)], "spec 0: m must be an integer >= 1, got True"),
        ([dict(good, signal_accuracy=0.2)], "spec 0: signal_accuracy must lie in "
                                            "(1/k, 1], got 0.2"),
        # true would plant accuracy 1, false no abstains, [true, false] class 1 only
        ([dict(good, signal_accuracy=True)], "spec 0: signal_accuracy must lie in "
                                             "(1/k, 1], got True"),
        ([dict(good, abstain_rate=False)], "spec 0: abstain_rate must lie in [0, 1), "
                                           "got False"),
        ([dict(good, signal_accuracy="0.9")], "spec 0: signal_accuracy must lie in "
                                              "(1/k, 1], got 0.9"),
        ([dict(good, class_balance=[True, False])], "spec 0: class_balance must be "
                                                    "nonnegative and sum to 1"),
    ]:
        spec_path.write_text(json.dumps(specs))
        assert run_cli("sweep", "--specs", str(spec_path),
                       "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"onionlabel: {spec_path}: {message}"]


# ---------------------------------------------------------------------------
# parser-level behaviour


def test_version_flag_exits_zero(capsys):
    assert run_cli("--version") == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    assert run_cli() == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate") == 2


# ---------------------------------------------------------------------------
# console script + env var wiring (subprocess)


def test_module_entry_point_prints_the_version_and_exits_2_on_usage_errors():
    module = [sys.executable, "-m", "onionlabel"]
    r = subprocess.run(module + ["--version"], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "0.1.0\n")
    r = subprocess.run(module + ["label"], capture_output=True, text=True)
    assert r.returncode == 2 and "required" in r.stderr


def test_console_script_end_to_end(tmp_path):
    prefix = tmp_path / "inst"
    env_cmd = [sys.executable, "-m", "onionlabel"]
    r = subprocess.run(
        env_cmd + ["synth", "--n", "16", "--k", "2", "--m", "3",
                   "--accuracy", "0.9", "--seed", "2",
                   "--out-prefix", str(prefix)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    out = tmp_path / "labels.json"
    r = subprocess.run(
        env_cmd + ["label", "--weak-labels", f"{prefix}.csv",
                   "--n", "16", "--k", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert out.exists() and (tmp_path / "labels.manifest.json").exists()


def test_errors_print_one_stderr_line(tmp_path):
    # a fresh interpreter: under pytest the root logger would swallow a second line
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(STUCK_DOC))
    env = {key: v for key, v in os.environ.items() if key != "ONIONLABEL_LOG"}
    label = [sys.executable, "-m", "onionlabel", "label", "--n", "4", "--k", "2"]
    for weak, rc, message in [
        (path, 3, "onionlabel: annealing failed: "),
        (tmp_path / "missing.csv", 2, "onionlabel: "),
    ]:
        r = subprocess.run(label + ["--weak-labels", str(weak), "--alpha", "0.25"],
                           capture_output=True, text=True, env=env)
        assert r.returncode == rc
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith(message)


def test_log_env_var_enables_debug(tmp_path):
    prefix = tmp_path / "inst"
    subprocess.run(
        [sys.executable, "-m", "onionlabel", "synth", "--n", "16", "--k", "2",
         "--m", "3", "--accuracy", "0.9", "--out-prefix", str(prefix)],
        capture_output=True, text=True, check=True,
    )
    env = dict(os.environ, ONIONLABEL_LOG="DEBUG")
    r = subprocess.run(
        [sys.executable, "-m", "onionlabel", "label",
         "--weak-labels", f"{prefix}.csv", "--n", "16", "--k", "2"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0
    assert "DEBUG" in r.stderr  # anneal/solve diagnostics surface at this level
    # the anneal reports the grid index it reached, the grid length and its probes
    assert re.search(r"anneal: SAFE at eps=\S+, grid index \d+ of \d+, \d+ probes",
                     r.stderr)
