"""Weak-signal matrices: ingestion, validation, reduction and error rates.

A weak-signal matrix holds m signals over n points and k classes as an
``(m, n*k)`` float matrix.  Columns are laid out class-major: the entry for
class ``c`` (1-based) and point ``j`` (0-based) sits at column
``(c - 1) * n + j``.  Abstains are filled with ``1/k`` and remembered in a
parallel boolean mask.  A matrix of votes holds only the votes, from which
the column groups and the vote tallies are counted; its float matrix and
mask are built on first read.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "WeakSignalMatrix",
    "LabelVector",
    "Violation",
    "ValidationReport",
    "col_index",
    "expand_pws",
    "load_pws_matrix",
    "validate",
    "reduce_signals",
    "expected_error_rate",
]

MAX_CHUNKS = 5  # the most rows of a cloud: SolverConfig.chunks and hull_decompose's bound
DEFAULT_CHUNKS = MAX_CHUNKS  # signals left after reduce_signals; SolverConfig.chunks
_BLOCK = 1 << 20  # bytes of a binary vote CSV parsed at a time


def col_index(cls: int, point: int, n: int) -> int:
    """Column of class ``cls`` (1-based) and point ``point`` (0-based)."""
    return (cls - 1) * n + point


def _freeze(a, dtype=None, owned: bool = False) -> np.ndarray:
    """A read-only array of a's values, for a frozen output to keep.

    An ``owned`` array, made for the output and handed over, is frozen in
    place with every array it views, laid out as it is.  Any other input
    becomes a C-contiguous array of ``dtype``: kept when it already is one
    that nothing can write (it and every array it views are read-only, as
    an array handed over is), the conversion's own result when that copies,
    and a copy otherwise, so a caller's array stays writeable and apart.
    """
    if not owned:
        out = np.asarray(a, dtype=dtype, order="C")
        if (out is a or out.base is not None) and any(x.flags.writeable for x in _views(out)):
            out = out.copy()
        a = out
    for x in _views(a):
        x.setflags(write=False)
    return a


def _views(a):
    """a and each array it is a view of."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


def _check_size(n: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


@dataclass(frozen=True, init=False, eq=False)
class WeakSignalMatrix:
    """m weak signals over n points and k classes, abstains filled with 1/k.

    ``values`` is the (m, n*k) float64 matrix and ``abstain`` its bool mask.
    A matrix built by ``expand_pws`` (so also by the vote loaders) holds its
    votes as ``votes``: a read-only (m, n) copy over {0 (abstain), 1..k} in
    the smallest unsigned dtype that holds k, from which ``values`` and
    ``abstain`` are built, read-only, on first read.  Any other matrix has
    ``votes = None``.
    """

    n: int
    k: int
    votes: np.ndarray | None = None

    def __init__(self, values, abstain, n: int, k: int):
        values = _freeze(values, np.float64)
        abstain = _freeze(abstain, bool)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if values.shape != abstain.shape:
            raise ValueError("values and abstain mask must have the same shape")
        _check_size(n, k)
        if values.shape[1] != n * k:
            raise ValueError(f"values has {values.shape[1]} columns, expected n*k = {n * k}")
        self.__dict__.update(values=values, abstain=abstain, n=n, k=k)

    @cached_property
    def values(self) -> np.ndarray:
        # (m, k, n) with class c in plane c - 1: the reshape lays out the class blocks
        votes = self.votes[:, None]
        values = np.where(votes == 0, 1.0 / self.k, votes == np.arange(1, self.k + 1)[:, None])
        return _freeze(values, owned=True).reshape(-1, self.n * self.k)

    @cached_property
    def abstain(self) -> np.ndarray:
        return _freeze(np.tile(self.votes == 0, self.k), owned=True)

    @property
    def m(self) -> int:
        return len(self.values if self.votes is None else self.votes)


@dataclass(frozen=True)
class LabelVector:
    """Hard labels in 1..k with the matching one-hot layout."""

    hard: np.ndarray  # (n,) int64, values in 1..k
    k: int

    def __post_init__(self):
        hard = _freeze(self.hard, np.int64)
        if hard.ndim != 1:
            raise ValueError("hard labels must be 1-d")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if hard.size and (hard.min() < 1 or hard.max() > self.k):
            raise ValueError("hard labels must lie in 1..k")
        object.__setattr__(self, "hard", hard)

    @property
    def n(self) -> int:
        return self.hard.shape[0]

    @property
    def onehot(self) -> np.ndarray:
        """(n*k,) one-hot vector in the class-major column layout."""
        n = self.n
        y = np.zeros(n * self.k)
        y[(self.hard - 1) * n + np.arange(n)] = 1.0
        return y

    @classmethod
    def from_onehot(cls, onehot: np.ndarray, n: int, k: int) -> "LabelVector":
        onehot = np.asarray(onehot, dtype=np.float64)
        if onehot.shape != (n * k,):
            raise ValueError(f"one-hot vector must have length n*k = {n * k}")
        grid = onehot.reshape(k, n)
        if not np.all(np.isclose(grid.sum(axis=0), 1.0)) or not np.all(
            np.isclose(grid.max(axis=0), 1.0)
        ):
            raise ValueError("vector is not one-hot per point")
        return cls(hard=_freeze(grid.argmax(axis=0) + 1, owned=True), k=k)


def expand_pws(votes: np.ndarray, k: int) -> WeakSignalMatrix:
    """Hold an (m, n) vote matrix over {0 (abstain), 1..k} in signal form.

    A vote for class c reads as 1 in the class-c block and 0 in all other
    blocks for that point; an abstain as 1/k in every block.
    """
    votes = np.asarray(votes)
    if votes.ndim != 2:
        raise ValueError("votes must be (m, n)")
    if not np.issubdtype(votes.dtype, np.integer):
        raise ValueError("votes must be integers")
    if votes.size and (votes.min() < 0 or votes.max() > k):
        raise ValueError(f"votes must lie in 0..{k}")
    _check_size(votes.shape[1], k)
    w = WeakSignalMatrix.__new__(WeakSignalMatrix)
    # a copy, so the caller's array stays writeable
    w.__dict__.update(n=votes.shape[1], k=k,
                      votes=_freeze(votes.astype(np.min_scalar_type(k)), owned=True))
    return w


def _parse_pws_token(tok: str, k: int, where: str) -> int:
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
        # binary alphabet: -1 -> class 2, +1 -> class 1, 0 -> abstain
        if iv not in (-1, 0, 1):
            raise ValueError(f"{where}: entry {iv} outside binary alphabet {{-1,0,+1}}")
        return {1: 1, -1: 2, 0: 0}[iv]
    if iv < 0 or iv > k:
        raise ValueError(f"{where}: entry {iv} outside alphabet 0..{k}")
    return iv


def _scan_votes(rows: list, row_numbers, k: int, text) -> np.ndarray:
    """Parse ``text(token)`` one token at a time in row-major order.

    Raises the error of the first bad entry, naming its row (``row_numbers``)
    and column.
    """
    return np.asarray([[_parse_pws_token(text(tok), k, f"row {r}, col {c}")
                        for c, tok in enumerate(row)]
                       for r, row in zip(row_numbers, rows)], dtype=np.int64)


def _parse_votes(rows: list, row_numbers, k: int, text) -> np.ndarray:
    """Votes over {0 (abstain), 1..k} of equal-length token rows, as (m, n) int64.

    One array parse and one alphabet check cover the whole matrix.  numpy
    converts a number exactly and reads a string token with ``float()``,
    which accepts a subset of what ``float(token.strip())`` does and agrees
    with it there.  When the parse or the check fails, ``_scan_votes`` finds
    the first bad entry; it also takes the few tokens only the stripped form
    parses, such as ``'\\x1c1'``.
    """
    try:
        v = np.array(rows, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return _scan_votes(rows, row_numbers, k, text)
    lo, hi = (-1, 1) if k == 2 else (0, k)
    # NaN fails all three comparisons and an infinity the range; a list entry
    # in a JSON row adds a dimension
    if v.ndim != 2 or not np.all((v >= lo) & (v <= hi) & (v == np.trunc(v))):
        return _scan_votes(rows, row_numbers, k, text)
    if k == 2:  # +1 -> class 1, -1 -> class 2, 0 -> abstain
        return np.select([v == 1, v == -1], [1, 2], 0)
    return v.astype(np.int64)


def _byte_votes(data: bytes, n: int, k: int):
    """The (m, n) uint8 votes of a canonical vote CSV's bytes, else None.

    Canonical: n tokens a row, each one vote digit (for k=2 also ``+1`` or
    ``-1``) followed by ``,`` inside a row and ``\\n`` at its end.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    if k > 9 or not data.endswith(b"\n"):
        return None
    parts, lo = [], 0
    while lo < b.size:  # whole rows at a time, so the index arrays stay small
        hi = data.index(b"\n", min(lo + _BLOCK, b.size) - 1) + 1
        r, lo = b[lo:hi], hi
        end = np.flatnonzero((r == 44) | (r == 10))  # each token's separator
        if end.size % n or end[0] == 0:  # an empty first token; r[end - 2] needs 2 bytes
            return None
        seps = r[end].reshape(-1, n)
        gap = np.diff(end, prepend=-1)  # a token's length + 1
        vote, sign = r[end - 1] - 48, r[end - 2]  # a byte below '0' wraps above 9
        signed = (k == 2) & (gap == 3) & (vote == 1) & ((sign == 43) | (sign == 45))
        if (vote.max() > (1 if k == 2 else k) or not np.all((gap == 2) | signed)
                or not ((seps[:, :-1] == 44).all() and (seps[:, -1] == 10).all())):
            return None
        parts.append(vote + (signed & (sign == 45)))  # -1 is class 2
    return np.concatenate(parts).reshape(-1, n)


def _load_csv(path: str, n: int, k: int) -> WeakSignalMatrix:
    with open(path, "rb") as fh:
        votes = _byte_votes(fh.read(), n, k)
    return expand_pws(_parse_csv(path, n, k) if votes is None else votes, k)


def _parse_csv(path: str, n: int, k: int) -> np.ndarray:
    rows, row_numbers, bad_row, r = [], [], None, -1
    with open(path, newline="") as fh:
        try:
            for r, line in enumerate(csv.reader(fh)):
                if not line or (len(line) == 1 and not line[0].strip()):
                    continue  # permit trailing blank line
                if len(line) != n:
                    bad_row = f"row {r}: expected {n} entries, found {len(line)}"
                    break
                rows.append(line)
                row_numbers.append(r)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            bad_row = f"row {r + 1}: {exc}"
    if rows:  # a bad entry in an earlier row wins over a bad row
        votes = _parse_votes(rows, row_numbers, k, str.strip)
    if bad_row is not None:
        raise ValueError(bad_row)
    if not rows:
        raise ValueError(f"{path}: no signal rows")
    return votes


def _load_json(path: str, n: int, k: int) -> WeakSignalMatrix:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("n", "k", "format", "rows"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    if (doc["n"], doc["k"]) != (n, k):
        raise ValueError(
            f"{path}: header (n={doc['n']}, k={doc['k']}) does not match "
            f"declared (n={n}, k={k})"
        )
    fmt = doc["format"]
    if fmt not in ("pws", "prob"):
        raise ValueError(f"{path}: unknown format {fmt!r} (expected 'pws' or 'prob')")
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: 'rows' must be a non-empty list of signal rows")
    width = n if fmt == "pws" else n * k
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"row {r}: expected a list of {width} entries")
        if len(row) != width:
            raise ValueError(f"row {r}: expected {width} entries, found {len(row)}")
    if fmt == "pws":
        # np.array reads true and false as 1 and 0, where str() makes them unparsable
        parse = _scan_votes if any(bool in map(type, row) for row in rows) else _parse_votes
        return expand_pws(parse(rows, range(len(rows)), k, str), k)
    values = np.zeros((len(rows), width))
    abstain = np.zeros((len(rows), width), dtype=bool)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v is None:  # null marks an abstain on that entry
                values[r, c] = 1.0 / k
                abstain[r, c] = True
                continue
            try:  # str() makes true and false unparsable, as in "pws" rows
                v = float(str(v) if isinstance(v, bool) else v)
            except (TypeError, ValueError):
                raise ValueError(f"row {r}, col {c}: unparsable entry {v!r}")
            except OverflowError:  # an integer literal past float range; its digits are not echoed
                raise ValueError(f"row {r}, col {c}: integer entry too large for a float")
            if math.isnan(v):
                raise ValueError(f"row {r}, col {c}: NaN entry")
            if v < 0.0 or v > 1.0:
                raise ValueError(f"row {r}, col {c}: entry {v} outside [0, 1]")
            values[r, c] = v
    return WeakSignalMatrix(values=_freeze(values, owned=True),
                            abstain=_freeze(abstain, owned=True), n=n, k=k)


def load_pws_matrix(path: str, n: int, k: int) -> WeakSignalMatrix:
    """Load weak signals from a vote CSV or a JSON document.

    CSV: one signal per line, n comma-separated votes; alphabet {-1, 0, +1}
    for k=2 (+1 is class 1, -1 class 2, 0 abstain) or {0, 1..k} otherwise.
    JSON: ``{"n", "k", "format": "pws"|"prob", "rows"}``; "prob" rows carry
    n*k probabilities in [0, 1] with ``null`` marking an abstained entry.
    NaN anywhere is a hard error.  A bad file raises ``ValueError`` naming
    its first bad row, or row and column, in row-major order.  A CSV of
    one-digit votes (and ``+1``/``-1`` for k=2) with ``,`` and ``\\n``
    separators is read from its bytes, any other by its tokens.
    """
    _check_size(n, k)
    if str(path).endswith(".json"):
        return _load_json(str(path), n, k)
    return _load_csv(str(path), n, k)


@dataclass(frozen=True)
class Violation:
    kind: str  # "nan" | "out_of_range" | "bad_abstain_fill"
    row: int
    col: int
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    abstain_fraction: np.ndarray = field(repr=False)  # per-signal fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(w: WeakSignalMatrix) -> ValidationReport:
    """Check value ranges and abstain fills; report per-signal abstain rates."""
    bad: list[Violation] = []
    vals = w.values
    nan_rows, nan_cols = np.nonzero(np.isnan(vals))
    for r, c in zip(nan_rows, nan_cols):
        bad.append(Violation("nan", int(r), int(c)))
    with np.errstate(invalid="ignore"):
        oob = (vals < 0.0) | (vals > 1.0)
    for r, c in zip(*np.nonzero(oob & ~np.isnan(vals))):
        bad.append(Violation("out_of_range", int(r), int(c), f"value={vals[r, c]!r}"))
    fill = np.isclose(vals, 1.0 / w.k, rtol=0.0, atol=1e-12)
    for r, c in zip(*np.nonzero(w.abstain & ~fill & ~np.isnan(vals))):
        bad.append(Violation("bad_abstain_fill", int(r), int(c), f"value={vals[r, c]!r}"))
    return ValidationReport(
        violations=tuple(bad), abstain_fraction=w.abstain.mean(axis=1)
    )


def reduce_signals(w: WeakSignalMatrix, chunks: int = DEFAULT_CHUNKS) -> WeakSignalMatrix:
    """Merge m signals into at most ``chunks`` by entrywise mean.

    Signals are grouped into contiguous chunks in their given order with sizes
    differing by at most one (earlier chunks take the remainder), and their
    means, summed in ascending order, do not depend on the order inside a
    chunk.  Abstain fills take part in the means; a merged entry counts as
    abstained only when every member of its chunk abstained there.  With
    m <= chunks the input is returned unchanged.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if w.m <= chunks:
        return w
    bounds = _chunk_bounds(w.m, chunks)
    values = np.stack([_chunk_mean(w.values[lo:hi]) for lo, hi in bounds])
    abstain = np.stack([w.abstain[lo:hi].all(axis=0) for lo, hi in bounds])
    return WeakSignalMatrix(values=_freeze(values, owned=True),
                            abstain=_freeze(abstain, owned=True), n=w.n, k=w.k)


def _chunk_bounds(m: int, chunks: int) -> list[tuple[int, int]]:
    """Row ranges ``[lo, hi)`` of ``reduce_signals``' chunks, one row each
    when m <= chunks."""
    count = min(m, chunks)
    size, extra = divmod(m, max(count, 1))  # the first `extra` chunks take one more
    return [(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra)) for i in range(count)]


def _chunk_mean(rows: np.ndarray) -> np.ndarray:
    """Column means of one chunk's rows, each column summed in ascending
    order; two rows commute unsorted."""
    return (np.sort(rows, axis=0) if len(rows) > 2 else rows).mean(axis=0)


def expected_error_rate(w: np.ndarray, y: LabelVector) -> float:
    """Expected disagreement of one signal row with labels y.

    Computed as ``(-2 w.y + w.1 + n) / (n k)``.  The all-zero row scores
    exactly 1/k, a uniform random guesser scores ``2/k - 2/k**2`` in
    expectation, and a perfect one-hot row scores 0.
    """
    w = np.asarray(w, dtype=np.float64)
    n, k = y.n, y.k
    if w.shape != (n * k,):
        raise ValueError(f"signal row must have length n*k = {n * k}")
    return float((-2.0 * w @ y.onehot + w.sum() + n) / (n * k))
