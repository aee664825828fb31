import os

import pytest

from fairthresh import cli


@pytest.fixture(autouse=True)
def _empty_scored_memo():
    """Each test starts from an empty memo of scored repetitions."""
    cli._scored_memo.clear()
    yield
    cli._scored_memo.clear()


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pid of the caller of each ``os.fork`` made in this process during
    the test; a child's own forks stay in the child."""
    fork, calls = os.fork, []

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls
