"""Weak-signal layout, IO, validation, reduction, and the error-rate formula."""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionlabel import signals
from onionlabel.hull import build_A
from onionlabel.signals import (
    DEFAULT_CHUNKS,
    LabelVector,
    WeakSignalMatrix,
    col_index,
    expand_pws,
    expected_error_rate,
    load_pws_matrix,
    reduce_signals,
    validate,
)
from onionlabel.synth import SynthSpec, generate_instance, generate_votes

# ---------------------------------------------------------------------------
# layout


def test_col_index_is_class_major():
    n, k = 5, 3
    # class c block occupies columns [(c-1)*n, c*n)
    assert col_index(1, 0, n) == 0
    assert col_index(1, 4, n) == 4
    assert col_index(2, 0, n) == 5
    assert col_index(3, 4, n) == 14
    seen = {col_index(c, j, n) for c in range(1, k + 1) for j in range(n)}
    assert seen == set(range(n * k))


def test_label_vector_onehot_roundtrip():
    y = LabelVector(hard=np.array([1, 2, 3, 1]), k=3)
    oh = y.onehot
    assert oh.shape == (12,)
    assert oh.sum() == 4
    for j, c in enumerate(y.hard):
        assert oh[col_index(int(c), j, y.n)] == 1.0
    back = LabelVector.from_onehot(oh, n=4, k=3)
    assert np.array_equal(back.hard, y.hard)


def test_label_vector_rejects_bad_classes():
    with pytest.raises(ValueError):
        LabelVector(hard=np.array([0, 1]), k=2)
    with pytest.raises(ValueError):
        LabelVector(hard=np.array([1, 3]), k=2)


def _zeros(values_shape, abstain_shape, n, k) -> WeakSignalMatrix:
    return WeakSignalMatrix(values=np.zeros(values_shape), abstain=np.zeros(abstain_shape, bool),
                            n=n, k=k)


@pytest.mark.parametrize("build, message", [
    (lambda: _zeros(4, 4, n=2, k=2), "values must be a 2-d array"),
    (lambda: _zeros((1, 4), (1, 3), n=2, k=2), "values and abstain mask must have the same shape"),
    (lambda: _zeros((1, 2), (1, 2), n=2, k=1), "k must be >= 2, got 1"),
    (lambda: _zeros((1, 4), (1, 4), n=0, k=2), "n must be >= 1, got 0"),
    (lambda: _zeros((1, 4), (1, 4), n=3, k=2), "values has 4 columns, expected n*k = 6"),
    (lambda: LabelVector(hard=np.array([1, 1]), k=1), "k must be >= 2, got 1"),
    (lambda: LabelVector.from_onehot(np.ones(3), n=2, k=2),
     "one-hot vector must have length n*k = 4"),
    (lambda: LabelVector.from_onehot(np.full(4, 0.5), n=2, k=2),
     "vector is not one-hot per point"),
    # the loader checks n and k before it looks for the file
    (lambda: load_pws_matrix("absent.csv", n=2, k=1), "k must be >= 2, got 1"),
    (lambda: load_pws_matrix("absent.json", n=0, k=2), "n must be >= 1, got 0"),
])
def test_constructors_and_loader_reject_bad_shapes(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _caller_array_stays_apart(given: np.ndarray, kept: np.ndarray) -> None:
    before = given.copy()
    assert given.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(given, kept)
    given[...] = 0  # the caller writes its own array; the kept one is unchanged
    assert kept.tolist() == before.tolist()


def test_weak_signal_matrix_copies_a_caller_array_and_never_freezes_it():
    values = np.array([[1.0, 0.5, 0.0, 0.5]])
    abstain = np.array([[False, True, False, True]])
    w = WeakSignalMatrix(values=values, abstain=abstain, n=2, k=2)
    _caller_array_stays_apart(values, w.values)
    _caller_array_stays_apart(abstain, w.abstain)
    # an array nothing can write is kept: a matrix built on another's arrays
    # shares them; a read-only view of a writeable array is copied
    again = WeakSignalMatrix(values=w.values, abstain=w.abstain, n=2, k=2)
    assert again.values is w.values and again.abstain is w.abstain
    view = values.view()
    view.setflags(write=False)
    _caller_array_stays_apart(values, WeakSignalMatrix(values=view, abstain=abstain, n=2,
                                                       k=2).values)
    # a list or another dtype is converted once, into an array of its own
    w = WeakSignalMatrix(values=[[1, 0, 0, 1]], abstain=[[0, 0, 0, 0]], n=2, k=2)
    assert w.values.dtype == np.float64 and w.abstain.dtype == bool
    assert w.values.base is None and not w.values.flags.writeable


def test_label_vector_copies_a_caller_array_and_never_freezes_it():
    hard = np.array([1, 2, 2])
    y = LabelVector(hard=hard, k=2)
    _caller_array_stays_apart(hard, y.hard)
    assert LabelVector(hard=y.hard, k=2).hard is y.hard
    with pytest.raises(ValueError, match="1-d"):
        LabelVector(hard=np.array(1), k=2)


def test_freeze_hands_over_owned_arrays_and_copies_the_rest():
    # an owned array is frozen in place with the array it views, so a
    # constructor keeps it without a second copy
    base = np.arange(6.0)
    view = signals._freeze(base.reshape(2, 3), owned=True)
    assert view.base is base and not base.flags.writeable
    assert signals._freeze(view, np.float64) is view
    # an F-ordered array becomes a C-ordered copy of its own, frozen
    f = np.asfortranarray(np.ones((2, 3)))
    c = signals._freeze(f)
    assert c.flags.c_contiguous and f.flags.writeable and not c.flags.writeable


@pytest.mark.parametrize("build", ["expand_pws", "reduce_signals", "load_json", "target",
                                   "hull_decompose", "solve"])
def test_package_constructions_hand_over_their_arrays(build, tmp_path, monkeypatch):
    # the package's own constructions make each frozen array once: the
    # constructor keeps what it is handed, with no second copy
    from onionlabel import hull, solver

    votes = np.random.default_rng(0).integers(0, 3, size=(7, 30))
    w = expand_pws(votes, 2)
    path = tmp_path / "w.json"
    rows = np.where(w.abstain, None, w.values).tolist()
    path.write_text(json.dumps({"n": 30, "k": 2, "format": "prob", "rows": rows}))
    cloud, decomp = solver.prepare(w)
    kept = []
    freeze = signals._freeze

    def spy(a, dtype=None, owned=False):
        out = freeze(a, dtype, owned)
        kept.append(owned or out is a)
        return out

    for module in (signals, hull, solver):
        monkeypatch.setattr(module, "_freeze", spy)
    out = {
        "expand_pws": lambda: expand_pws(votes, 2),
        "reduce_signals": lambda: reduce_signals(w, 5),
        "load_json": lambda: load_pws_matrix(str(path), 30, 2),
        "target": lambda: solver._target_at_bound(w, cloud),
        "hull_decompose": lambda: hull.hull_decompose(cloud),
        "solve": lambda: solver._solve(solver._target_at_bound(w, cloud).b, w.n, cloud.groups,
                                       cloud.counts, solver.SolverConfig()),
    }[build]()
    assert kept and all(kept)
    for a in vars(out).values():
        if isinstance(a, np.ndarray):
            assert not any(x.flags.writeable for x in signals._views(a))


# ---------------------------------------------------------------------------
# expand_pws


def test_expand_pws_layout_and_abstain_fill():
    votes = np.array([[1, 0, 2]])  # point 0 -> class 1, point 1 abstain, point 2 -> class 2
    w = expand_pws(votes, k=2)
    assert w.n == 3 and w.k == 2 and w.m == 1
    np.testing.assert_allclose(w.values[0], [1.0, 0.5, 0.0, 0.0, 0.5, 1.0])
    assert w.abstain[0].tolist() == [False, True, False, False, True, False]


def test_expand_pws_keeps_a_read_only_copy_of_the_votes():
    votes = np.array([[1, 0, 2], [2, 2, 0]])
    w = expand_pws(votes, k=2)
    assert w.votes.tolist() == votes.tolist() and w.votes.dtype == np.uint8
    assert not w.votes.flags.writeable
    votes[0, 0] = 2  # the caller's array stays writeable and apart
    assert w.votes[0, 0] == 1
    assert WeakSignalMatrix(values=w.values, abstain=w.abstain, n=3, k=2).votes is None
    assert reduce_signals(w, 1).votes is None  # merged signals are no votes


def _eager_expand(votes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The float matrix and mask as ``expand_pws`` built them eagerly."""
    ab = votes == 0
    values = np.where(ab[:, None], 1.0 / k, votes[:, None] == np.arange(1, k + 1)[:, None])
    return values.reshape(votes.shape[0], votes.shape[1] * k), np.tile(ab, k)


def _assert_read_only_and_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes() and not got.flags.writeable


@pytest.mark.parametrize("k, shape", [(2, (3, 5)), (3, (4, 7)), (5, (2, 9)), (3, (0, 4))])
def test_expand_pws_builds_the_float_matrix_on_first_read(k, shape):
    votes = np.random.default_rng(k).integers(0, k + 1, size=shape)
    w = expand_pws(votes, k)
    assert w.m == shape[0] and "values" not in vars(w) and "abstain" not in vars(w)
    values, abstain = _eager_expand(votes, k)
    _assert_read_only_and_equal(w.values, values)
    _assert_read_only_and_equal(w.abstain, abstain)
    assert w.values is w.values and w.abstain is w.abstain  # built once


def test_pipeline_on_a_vote_csv_never_builds_the_float_matrix(tmp_path):
    from onionlabel import SolverConfig, majority_vote, run_ablation, run_oua

    votes, _ = generate_votes(SynthSpec(n=500, k=3, m=10, signal_accuracy=0.8,
                                        abstain_rate=0.3, seed=0))
    path = tmp_path / "w.csv"
    np.savetxt(path, votes, fmt="%d", delimiter=",")
    w = load_pws_matrix(str(path), 500, 3)
    assert w.m == 10
    run_oua(w, SolverConfig())
    run_ablation(w, SolverConfig())
    majority_vote(w, seed=0)
    assert "values" not in vars(w) and "abstain" not in vars(w)
    values, abstain = _eager_expand(votes, 3)
    _assert_read_only_and_equal(w.values, values)
    _assert_read_only_and_equal(w.abstain, abstain)


def test_expand_pws_rejects_bad_votes():
    with pytest.raises(ValueError):
        expand_pws(np.array([[3]]), k=2)
    with pytest.raises(ValueError):
        expand_pws(np.array([[-1]]), k=2)
    with pytest.raises(ValueError):
        expand_pws(np.array([[0.5]]), k=2)
    with pytest.raises(ValueError):
        expand_pws(np.array([1, 2]), k=2)  # not (m, n)


# ---------------------------------------------------------------------------
# worked-example oracles


def test_table_signals_abstain_fractions(table_signals):
    report = validate(table_signals)
    assert report.ok
    np.testing.assert_allclose(
        report.abstain_fraction, [8 / 15, 10 / 15, 11 / 15]
    )


def test_table_signals_error_rate_row1(table_signals, table_truth):
    # hand-computed: w1.y = 0.8+0.7+0.6+0.8+1/3, w1.1 = 3.5+8/3, n=5, k=3
    eps = expected_error_rate(table_signals.values[0], table_truth)
    assert eps == pytest.approx(4.7 / 15, abs=1e-12)


# ---------------------------------------------------------------------------
# CSV / JSON loading


def test_load_csv_binary_alphabet(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("+1,0,-1\n-1,-1,+1\n")
    w = load_pws_matrix(str(path), n=3, k=2)
    assert w.m == 2
    # +1 -> class 1, -1 -> class 2, 0 -> abstain
    np.testing.assert_allclose(w.values[0], [1.0, 0.5, 0.0, 0.0, 0.5, 1.0])
    np.testing.assert_allclose(w.values[1], [0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    assert w.abstain[0].tolist() == [False, True, False, False, True, False]


def test_load_csv_multiclass_alphabet(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1,3,0\n2,2,1\n")
    w = load_pws_matrix(str(path), n=3, k=3)
    assert w.values[0, col_index(3, 1, 3)] == 1.0
    assert w.abstain[0, col_index(1, 2, 3)]


# each bad file and the exact message it raises with n=3, k=3
_BAD_CSV = {
    "1,2\n": "row 0: expected 3 entries, found 2",
    "1,2,x\n": "row 0, col 2: unparsable entry 'x'",
    "1,2,nan\n": "row 0, col 2: non-finite entry 'nan'",
    "1,2,9\n": "row 0, col 2: entry 9 outside alphabet 0..3",
    "1,2,-1\n": "row 0, col 2: entry -1 outside alphabet 0..3",
    "1,2,1.5\n": "row 0, col 2: entry '1.5' outside the allowed alphabet",
    "1,2,inf\n": "row 0, col 2: non-finite entry 'inf'",
    "1,2,1e400\n": "row 0, col 2: non-finite entry '1e400'",  # overflows
    "": "{path}: no signal rows",
    # the first bad entry in row-major order wins
    "1,2,x\n1,2\n": "row 0, col 2: unparsable entry 'x'",
    "1,2\n1,2,x\n": "row 0: expected 3 entries, found 2",
    "1,x,9\n": "row 0, col 1: unparsable entry 'x'",
    "1,nan,x\n": "row 0, col 1: non-finite entry 'nan'",
    # row numbers count skipped blank and whitespace-only lines
    "1,2,1\n\n1,2,x\n": "row 2, col 2: unparsable entry 'x'",
    " \n1,2,1\n1,1\n": "row 2: expected 3 entries, found 2",
    '1,"2,1",1\n': "row 0, col 1: unparsable entry '2,1'",  # a quoted comma
}


@pytest.mark.parametrize("text", list(_BAD_CSV))
def test_load_csv_rejects_bad_rows(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    message = _BAD_CSV[text].format(path=path)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        load_pws_matrix(str(path), n=3, k=3)


def test_load_csv_field_over_the_csv_limit_names_its_row(tmp_path):
    # csv.reader raises _csv.Error on a field over csv.field_size_limit()
    # (131,072 characters by default), which is not a ValueError
    path = tmp_path / "w.csv"
    path.write_text("1,2,1\n" + "1" * 200_000 + ",2,1\n")
    with pytest.raises(ValueError, match=r"^row 1: field larger than field limit"):
        load_pws_matrix(str(path), n=3, k=3)
    # an earlier bad entry still wins, as over a row of the wrong length
    path.write_text("1,2,x\n" + "1" * 200_000 + ",2,1\n")
    with pytest.raises(ValueError, match=r"^row 0, col 2: unparsable entry 'x'$"):
        load_pws_matrix(str(path), n=3, k=3)


@pytest.mark.parametrize(
    "k, text, votes",
    [
        (2, ' 1 ,1.0,1e0,+1,"1"\n', [1, 1, 1, 1, 1]),
        (2, '-1,-1.0, -1e0 ,0.0,"-0"\n', [2, 2, 2, 0, 0]),
        (3, ' 3 ,2.0,1e0,+1,"0"\n', [3, 2, 1, 1, 0]),
    ],
)
def test_load_csv_accepts_number_spellings(tmp_path, k, text, votes):
    path = tmp_path / "w.csv"
    path.write_text(text)
    w = load_pws_matrix(str(path), n=5, k=k)
    ref = expand_pws(np.array([votes]), k)
    assert np.array_equal(w.values, ref.values)
    assert np.array_equal(w.abstain, ref.abstain)


def test_valid_votes_are_parsed_without_the_token_scan(tmp_path, monkeypatch):
    monkeypatch.setattr(signals, "_scan_votes", None)  # only bad input may scan
    path = tmp_path / "w.csv"
    for k, text in [(2, ' 1 ,1.0,1e0,+1,"-1"\n0,-1,-0,1,1\n'), (3, '3, 2.0,1e0,+1,"0"\n')]:
        path.write_text(text)
        assert load_pws_matrix(str(path), n=5, k=k).m == text.count("\n")
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"n": 2, "k": 3, "format": "pws", "rows": [[1, 0.0], [3, "2"]]}))
    assert load_pws_matrix(str(path), n=2, k=3).m == 2


# The per-token loader the vectorised one replaced, kept as the reference.
def _reference_parse_token(tok: str, k: int, where: str) -> int:
    try:
        v = float(tok)
    except ValueError:
        raise ValueError(f"{where}: unparsable entry {tok!r}")
    if not math.isfinite(v):
        raise ValueError(f"{where}: non-finite entry {tok!r}")
    if v != int(v):
        raise ValueError(f"{where}: entry {tok!r} outside the allowed alphabet")
    iv = int(v)
    if k == 2:
        if iv not in (-1, 0, 1):
            raise ValueError(f"{where}: entry {iv} outside binary alphabet {{-1,0,+1}}")
        return {1: 1, -1: 2, 0: 0}[iv]
    if iv < 0 or iv > k:
        raise ValueError(f"{where}: entry {iv} outside alphabet 0..{k}")
    return iv


def _reference_load_csv(path: str, n: int, k: int) -> WeakSignalMatrix:
    rows = []
    with open(path, newline="") as fh:
        for r, line in enumerate(csv.reader(fh)):
            if not line or (len(line) == 1 and not line[0].strip()):
                continue
            if len(line) != n:
                raise ValueError(f"row {r}: expected {n} entries, found {len(line)}")
            rows.append([_reference_parse_token(tok.strip(), k, f"row {r}, col {c}")
                         for c, tok in enumerate(line)])
    if not rows:
        raise ValueError(f"{path}: no signal rows")
    return expand_pws(np.asarray(rows, dtype=np.int64), k)


def _outcome(load, *args):
    """(shape, values bytes, abstain bytes) of a load, or its ValueError text."""
    try:
        w = load(*args)
    except ValueError as exc:
        return str(exc)
    assert w.values.dtype == np.float64 and w.abstain.dtype == bool
    return w.values.shape, w.values.tobytes(), w.abstain.tobytes()


_ODD_TOKENS = ["1.0", " +1 ", "1e0", "1_0", "nan", "inf", "1e400", "x", "", "1.5",
               "-0", '"1"', '" 0 "', '"1,0"', "1e-400", "\x1c1", "9", "-2"]


def _random_vote_csv(rng: np.random.Generator, n: int, k: int) -> str:
    valid = ["-1", "0", "+1", "1"] if k == 2 else [str(c) for c in range(k + 1)]
    odd_rate = rng.choice([0.0, 0.0, 0.02, 0.2])
    lines = []
    for _ in range(rng.integers(1, 7)):
        kind = rng.random()
        if kind < 0.08:
            lines.append("")
        elif kind < 0.14:
            lines.append(" \t")
        else:
            width = n if kind < 0.96 else max(1, n + rng.choice([-1, 1]))
            toks = [str(rng.choice(_ODD_TOKENS)) if rng.random() < odd_rate
                    else str(rng.choice(valid)) for _ in range(width)]
            lines.append(",".join(toks))
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _count_byte_votes(monkeypatch) -> list:
    """Patch ``_byte_votes`` to record whether each call read the bytes."""
    calls, byte_votes = [], signals._byte_votes

    def spy(*args):
        votes = byte_votes(*args)
        calls.append(votes is not None)
        return votes

    monkeypatch.setattr(signals, "_byte_votes", spy)
    return calls


def test_load_csv_matches_per_token_reference_on_fuzzed_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(20231)
    path = tmp_path / "w.csv"
    byte_path = _count_byte_votes(monkeypatch)
    loaded = 0
    for _ in range(400):
        k = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(1, 6))
        path.write_bytes(_random_vote_csv(rng, n, k).encode())
        expected = _outcome(_reference_load_csv, str(path), n, k)
        assert _outcome(load_pws_matrix, str(path), n, k) == expected
        loaded += not isinstance(expected, str)
    assert loaded >= 100  # both the parse and the error path are exercised
    assert len(byte_path) == 400 and 100 <= sum(byte_path) < loaded  # and both CSV paths


def _canonical_files(tmp_path, k):
    """A planted instance's votes, written by np.savetxt and by ``onionlabel synth``."""
    from onionlabel.cli import main

    spec = SynthSpec(n=40, k=k, m=4, signal_accuracy=0.8, abstain_rate=0.3, seed=5)
    votes, _ = generate_votes(spec)
    saved = tmp_path / f"saved{k}.csv"
    np.savetxt(saved, np.select([votes == 1, votes == 2], [1, -1], 0) if k == 2 else votes,
               fmt="%d", delimiter=",")
    assert main(["synth", "--n", "40", "--k", str(k), "--m", "4", "--accuracy", "0.8",
                 "--abstain", "0.3", "--seed", "5", "--out-prefix", str(tmp_path / "s")]) == 0
    return votes, [saved, tmp_path / "s.csv"]


@pytest.mark.parametrize("block", [signals._BLOCK, 5])  # 5 bytes: one row a block
@pytest.mark.parametrize("k", [2, 3])
def test_canonical_csv_is_read_as_bytes(tmp_path, monkeypatch, k, block):
    votes, paths = _canonical_files(tmp_path, k)
    if k == 2:
        assert b"+1" in paths[1].read_bytes() and b"+1" not in paths[0].read_bytes()
    monkeypatch.setattr(signals, "_BLOCK", block)
    monkeypatch.setattr(csv, "reader", None)  # neither reaches the token parse
    monkeypatch.setattr(signals, "_parse_votes", None)
    for path in paths:
        w = load_pws_matrix(str(path), 40, k)
        assert w.votes.dtype == np.uint8 and w.votes.tolist() == votes.tolist()


# files the byte path leaves to the token parse, which loads or rejects them
_EDGE_CSV = {
    "crlf": (2, 2, "1,-1\r\n0,+1\r\n"),
    "crlf-k3": (3, 2, "1,2\r\n3,0\r\n"),
    "no-final-newline": (2, 2, "1,-1\n0,+1"),
    "no-final-newline-k3": (3, 2, "1,2\n3,0"),
    "trailing-blank-line": (2, 2, "1,-1\n0,+1\n\n"),
    "trailing-blank-line-k3": (3, 2, "1,2\n3,0\n\n"),
    "bom": (2, 2, "\ufeff1,-1\n"),
    "bom-k3": (3, 2, "\ufeff1,2\n"),
    "minus-zero": (2, 2, "-0,1\n"),
    "plus-zero": (2, 2, "1,+0\n"),
    "sign-k3": (3, 2, "+1,2\n"),
    "minus-k3": (3, 2, "1,-1\n"),
    "trailing-comma": (2, 2, "1,-1,\n"),
    "trailing-comma-k3": (3, 2, "1,2,\n"),
    "empty": (2, 2, ""),
    "empty-k3": (3, 2, ""),
    "short-row": (2, 3, "1,-1,0\n1,-1\n"),
    "short-row-k3": (3, 3, "1,2,0\n1,2\n"),
    "long-row": (2, 2, "1,-1\n1,-1,0\n"),
    "long-row-k3": (3, 2, "1,2\n1,2,0\n"),
    "blank-first-line": (2, 2, "\n1,-1\n"),
    "leading-comma": (2, 2, ",1\n"),
    "k10": (10, 2, "1,9\n3,0\n"),
    "k10-two-digits": (10, 2, "10,9\n3,0\n"),
}


@pytest.mark.parametrize("case", list(_EDGE_CSV))
def test_non_canonical_csv_takes_the_token_parse(tmp_path, monkeypatch, case):
    k, n, text = _EDGE_CSV[case]
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    byte_path = _count_byte_votes(monkeypatch)
    assert _outcome(load_pws_matrix, str(path), n, k) == _outcome(_reference_load_csv,
                                                                   str(path), n, k)
    assert byte_path == [False]


def test_load_json_pws_matches_per_token_reference(tmp_path):
    pool = [1, 0, -1, 2, 3, 1.0, -0.0, 1.5, 1e-300, True, False, None, "1", " 1 ",
            "x", 10**400, math.inf, math.nan, [1], {"p": 1}]
    rng = np.random.default_rng(7)
    path = tmp_path / "w.json"

    def reference(rows, k):
        votes = [[_reference_parse_token(str(v), k, f"row {r}, col {c}")
                  for c, v in enumerate(row)] for r, row in enumerate(rows)]
        return expand_pws(np.asarray(votes, dtype=np.int64), k)

    loaded = 0
    for _ in range(200):
        k = int(rng.choice([2, 3]))
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        odd_rate = rng.choice([0.0, 0.1])
        rows = [[pool[rng.integers(len(pool))] if rng.random() < odd_rate
                 else int(rng.integers(-1, 2) if k == 2 else rng.integers(0, k + 1))
                 for _ in range(n)] for _ in range(m)]
        path.write_text(json.dumps({"n": n, "k": k, "format": "pws", "rows": rows}))
        rows = json.loads(path.read_text())["rows"]  # the values the loader sees
        expected = _outcome(reference, rows, k)
        assert _outcome(load_pws_matrix, str(path), n, k) == expected
        loaded += not isinstance(expected, str)
    assert loaded >= 50


def test_load_csv_binary_rejects_class_labels(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1,2,1\n")  # '2' is not in the binary alphabet {-1,0,+1}
    with pytest.raises(ValueError):
        load_pws_matrix(str(path), n=3, k=2)


def test_load_json_pws(tmp_path):
    doc = {"n": 2, "k": 3, "format": "pws", "rows": [[1, 0], [3, 2]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    w = load_pws_matrix(str(path), n=2, k=3)
    assert w.m == 2
    assert w.values[0, col_index(1, 0, 2)] == 1.0
    assert w.abstain[0, col_index(2, 1, 2)]


def test_load_json_prob_with_null_abstains(tmp_path):
    doc = {
        "n": 2,
        "k": 2,
        "format": "prob",
        "rows": [[0.9, None, 0.1, None]],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    w = load_pws_matrix(str(path), n=2, k=2)
    np.testing.assert_allclose(w.values[0], [0.9, 0.5, 0.1, 0.5])
    assert w.abstain[0].tolist() == [False, True, False, True]


def test_vote_loaders_keep_the_votes_and_prob_rows_do_not(tmp_path):
    csv_path, pws_path, prob_path = (tmp_path / name for name in ("w.csv", "p.json", "q.json"))
    csv_path.write_text("+1,0,-1\n-1,-1,+1\n")
    assert load_pws_matrix(str(csv_path), n=3, k=2).votes.tolist() == [[1, 0, 2], [2, 2, 1]]
    pws_path.write_text(json.dumps({"n": 2, "k": 3, "format": "pws", "rows": [[1, 0], [3, 2]]}))
    assert load_pws_matrix(str(pws_path), n=2, k=3).votes.tolist() == [[1, 0], [3, 2]]
    prob_path.write_text(json.dumps({"n": 1, "k": 2, "format": "prob", "rows": [[1.0, 0.0]]}))
    assert load_pws_matrix(str(prob_path), n=1, k=2).votes is None


def test_load_json_header_must_match(tmp_path):
    doc = {"n": 4, "k": 2, "format": "pws", "rows": [[1, 1, 1, 1]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_pws_matrix(str(path), n=5, k=2)
    with pytest.raises(ValueError):
        load_pws_matrix(str(path), n=4, k=3)


def test_load_json_rejects_bad_documents(tmp_path):
    path = tmp_path / "w.json"
    for text, where in [
        ('{"n": 1, "k": 2, "format": "huh", "rows": [[1]]}', "unknown format"),
        ('{"n": 1, "k": 2, "rows": [[1]]}', "missing key"),
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[1.5, 0.0]]}', "row 0, col 0"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": [[1e400]]}', "row 0, col 0"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": [[Infinity]]}', "row 0, col 0"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": [[true]]}',
         "row 0, col 0: unparsable entry 'True'"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": [[null]]}',
         "row 0, col 0: unparsable entry 'None'"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": [[[1]]]}',
         r"row 0, col 0: unparsable entry '\[1\]'"),
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[0.5, [0.5]]]}', "row 0, col 1"),
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[{"p": 0.5}, 0.5]]}', "row 0, col 0"),
        # float() reads true and false as 1 and 0; "pws" rows reject them too
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[0.5, true]]}',
         "row 0, col 1: unparsable entry True"),
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[false, 0.5]]}',
         "row 0, col 0: unparsable entry False"),
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[0.5, 0.5], [NaN, 0.5]]}',
         "row 1, col 0: NaN entry"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": 1}', "'rows' must be a non-empty list"),
        ('{"n": 1, "k": 2, "format": "pws", "rows": [1]}', "row 0"),
        ('{"n": 1, "k": 2, "format": "prob", "rows": [[0.5, 0.5], [0.5]]}',
         "^row 1: expected 2 entries, found 1$"),
        ('{"n": [1], "k": 2, "format": "pws", "rows": [[1]]}', "does not match"),
        ("5", "JSON object"),
        ("null", "JSON object"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_pws_matrix(str(path), n=1, k=2)


# ---------------------------------------------------------------------------
# validate


def test_validate_flags_out_of_range_and_bad_fill():
    values = np.array([[1.2, 0.5, 0.3, 0.5]])
    abstain = np.array([[False, True, True, True]])
    w = WeakSignalMatrix(values=values, abstain=abstain, n=2, k=2)
    report = validate(w)
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == ["bad_abstain_fill", "out_of_range"]
    assert not report.ok
    oob = next(v for v in report.violations if v.kind == "out_of_range")
    assert (oob.row, oob.col) == (0, 0)
    bad = next(v for v in report.violations if v.kind == "bad_abstain_fill")
    assert (bad.row, bad.col) == (0, 2)  # abstain entry not filled with 1/k


def test_validate_flags_nan_entries():
    values = np.array([[0.5, np.nan, 0.0, 1.0]])
    abstain = np.array([[True, False, False, False]])
    report = validate(WeakSignalMatrix(values=values, abstain=abstain, n=2, k=2))
    assert report.violations == (signals.Violation("nan", 0, 1),)
    assert not report.ok


def test_validate_clean_matrix_is_ok(table_signals):
    assert validate(table_signals).ok


# ---------------------------------------------------------------------------
# reduce_signals


def test_reduce_chunk_sizes_and_means():
    n, k, m = 2, 2, 8
    rng = np.random.default_rng(0)
    values = rng.uniform(size=(m, n * k))
    w = WeakSignalMatrix(values=values, abstain=np.zeros((m, n * k), bool), n=n, k=k)
    red = reduce_signals(w, chunks=5)
    assert red.m == 5
    # contiguous groups, earlier chunks take the remainder: sizes 2,2,2,1,1
    groups = [[0, 1], [2, 3], [4, 5], [6], [7]]
    for g_i, g in enumerate(groups):
        np.testing.assert_allclose(red.values[g_i], values[g].mean(axis=0))


def test_reduce_abstain_means_and_mask():
    # two signals, one point, k=2: first abstains, second votes class 1
    values = np.array([[0.5, 0.5], [1.0, 0.0]])
    abstain = np.array([[True, True], [False, False]])
    w = WeakSignalMatrix(values=values, abstain=abstain, n=1, k=2)
    red = reduce_signals(w, chunks=1)
    # abstain fills participate in the mean
    np.testing.assert_allclose(red.values[0], [0.75, 0.25])
    # merged entry abstains only when every member abstained
    assert red.abstain[0].tolist() == [False, False]
    both = WeakSignalMatrix(
        values=np.array([[0.5, 0.5], [0.5, 0.5]]),
        abstain=np.ones((2, 2), bool),
        n=1,
        k=2,
    )
    assert reduce_signals(both, chunks=1).abstain[0].tolist() == [True, True]


def _reverse_within_chunks(w, chunks):
    """w with its signals reversed inside each of reduce_signals's chunks."""
    order = np.concatenate([g[::-1] for g in np.array_split(np.arange(w.m), chunks)])
    return WeakSignalMatrix(values=w.values[order], abstain=w.abstain[order], n=w.n, k=w.k)


def test_reduce_means_do_not_depend_on_signal_order():
    # planted n=50k, k=3, m=15: chunks of 3.  Summed in the given order, the
    # reversed signals gave 31,900 distinct columns against 31,892
    w, _ = generate_instance(SynthSpec(n=50_000, k=3, m=15, signal_accuracy=0.8,
                                       abstain_rate=0.3, seed=0))
    groups = build_A(reduce_signals(w)).groups
    again = build_A(reduce_signals(_reverse_within_chunks(w, DEFAULT_CHUNKS))).groups
    for a, b in zip(groups, again):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 9])
def test_reduce_mean_is_the_ascending_sum(m):
    # "prob" values: the mean of one chunk is that of its sorted columns,
    # bitwise, in every order of the signals
    rng = np.random.default_rng(m)
    n, k = 50, 3
    values = rng.dirichlet(np.ones(k), size=(m, n)).transpose(0, 2, 1).reshape(m, n * k)
    values[rng.random(values.shape) < 0.2] = 1.0 / k  # abstain fills tie
    expected = np.sort(values, axis=0).mean(axis=0)
    for _ in range(3):
        shuffled = WeakSignalMatrix(values=values[rng.permutation(m)],
                                    abstain=np.zeros(values.shape, bool), n=n, k=k)
        assert reduce_signals(shuffled, chunks=1).values[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [6, 7, 8, 9, 10])
def test_reduce_chunks_of_two_keep_the_plain_mean(m):
    # with at most two signals a chunk, the means are bitwise the ones summed
    # in the given order
    w, _ = generate_instance(SynthSpec(n=500, k=3, m=m, signal_accuracy=0.8,
                                       abstain_rate=0.3, seed=m))
    groups = np.array_split(np.arange(m), DEFAULT_CHUNKS)
    plain = np.stack([w.values[g].mean(axis=0) for g in groups])
    assert reduce_signals(w).values.tobytes() == plain.tobytes()


def test_reduce_identity_when_m_small(table_signals):
    assert reduce_signals(table_signals, chunks=5) is table_signals
    assert reduce_signals(table_signals, chunks=3) is table_signals


def test_reduce_rejects_bad_chunks(table_signals):
    with pytest.raises(ValueError):
        reduce_signals(table_signals, chunks=0)


@given(
    m=st.integers(min_value=6, max_value=20),
    chunks=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_reduce_property_values_stay_in_range(m, chunks, seed):
    rng = np.random.default_rng(seed)
    n, k = 3, 2
    values = rng.uniform(size=(m, n * k))
    w = WeakSignalMatrix(values=values, abstain=np.zeros((m, n * k), bool), n=n, k=k)
    red = reduce_signals(w, chunks=chunks)
    assert red.m == chunks  # m >= 6 > chunks here, so reduction always applies
    assert red.values.min() >= 0.0 and red.values.max() <= 1.0
    # grand mean is preserved when chunk sizes are equal
    if m % chunks == 0:
        assert red.values.mean() == pytest.approx(values.mean())


# ---------------------------------------------------------------------------
# expected_error_rate


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_zero_vector_rate_is_exactly_one_over_k(k):
    n = 7
    y = LabelVector(hard=np.ones(n, dtype=np.int64), k=k)
    assert expected_error_rate(np.zeros(n * k), y) == 1.0 / k


def test_perfect_signal_rate_is_zero():
    y = LabelVector(hard=np.array([1, 2, 2, 1]), k=2)
    assert expected_error_rate(y.onehot, y) == 0.0


def test_error_rate_requires_matching_length():
    y = LabelVector(hard=np.array([1, 2]), k=2)
    with pytest.raises(ValueError):
        expected_error_rate(np.zeros(5), y)


@given(
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_error_rate_bounds_and_zero_iff_exact(n, k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    w = rng.uniform(size=n * k)
    y = LabelVector(hard=rng.integers(1, k + 1, size=n), k=k)
    eps = expected_error_rate(w, y)
    assert 0.0 <= eps <= 1.0
    # zero exactly when the row equals the one-hot truth
    assert (eps == 0.0) == np.array_equal(w, y.onehot)
    assert expected_error_rate(y.onehot, y) == 0.0


def test_error_rate_of_uniform_guess_matches_formula():
    # a one-hot row agreeing with truth on exactly n/k points scores 2/k - 2/k^2
    n, k = 12, 3
    hard = np.tile([1, 2, 3], 4)
    y = LabelVector(hard=hard, k=k)
    guess = np.roll(hard, 1)  # agrees on 0 points
    w = LabelVector(hard=guess, k=k).onehot
    # analytic: agreements a -> eps = (-2a + n + n) / (nk) with w.1 = n
    eps = expected_error_rate(w, y)
    assert eps == pytest.approx((2 * n) / (n * k))
