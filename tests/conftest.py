"""Shared fixtures plus the acceptance-line reporter.

Acceptance tests record one human-readable PASS/FAIL line each through the
``acceptance`` fixture; a terminal-summary hook prints them after the normal
pytest output so the verdicts survive output capture.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from onionlabel.signals import LabelVector, WeakSignalMatrix

# pytest finds the package through pyproject's ``pythonpath``; the tests that
# start a fresh interpreter pass it on through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

_ACCEPTANCE_LINES: list[str] = []


class _AcceptanceRecorder:
    def record(self, criterion: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append(f"[{verdict}] {criterion}: {detail}")

    def skip(self, criterion: str, detail: str) -> None:
        _ACCEPTANCE_LINES.append(f"[SKIP] {criterion}: {detail}")


@pytest.fixture(scope="session")
def acceptance() -> _AcceptanceRecorder:
    return _AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# A small worked example used as a frozen oracle across test modules:
# 3 signals over 5 points and 3 classes, abstains filled with 1/3.


def _table_signals() -> WeakSignalMatrix:
    na = None  # abstain
    rows = [
        # class 1 block          class 2 block            class 3 block
        [0.8, na, 0.0, 0.8, 0.4, na, 0.7, na, 0.2, na, na, na, 0.6, na, na],
        [0.7, 0.2, na, 0.6, 0.3, na, na, na, na, na, na, na, na, 0.3, na],
        [na, na, na, na, na, 0.4, na, na, 0.4, 0.6, na, na, na, na, 0.9],
    ]
    k = 3
    values = np.array([[1.0 / k if v is None else v for v in row] for row in rows])
    abstain = np.array([[v is None for v in row] for row in rows])
    return WeakSignalMatrix(values=values, abstain=abstain, n=5, k=k)


@pytest.fixture()
def table_signals() -> WeakSignalMatrix:
    return _table_signals()


@pytest.fixture()
def table_truth() -> LabelVector:
    return LabelVector(hard=np.array([1, 2, 3, 1, 3]), k=3)


@pytest.fixture()
def dedup_calls(monkeypatch) -> list:
    """Records one entry per ``_unique_columns`` call made anywhere in the package.

    The counter replaces the function in every loaded package module that
    holds it, since a module that imports it by name keeps its own reference.
    """
    calls: list = []
    for name, mod in list(sys.modules.items()):
        if name != "onionlabel" and not name.startswith("onionlabel."):
            continue
        fn = getattr(mod, "_unique_columns", None)
        if fn is not None:
            def counted(matrix, _fn=fn):
                calls.append(matrix.shape)
                return _fn(matrix)
            monkeypatch.setattr(mod, "_unique_columns", counted)
    assert calls == []
    return calls
