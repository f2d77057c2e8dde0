"""Fixtures shared by the test modules."""

import pytest

from patmat import rank


@pytest.fixture
def eliminations(monkeypatch):
    """The elimination states whose run() is called during the test, one
    entry per call."""
    calls = []
    original = rank._Elimination.run

    def counted(state):
        calls.append(state)
        original(state)

    monkeypatch.setattr(rank._Elimination, "run", counted)
    return calls
