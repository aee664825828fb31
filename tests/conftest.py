import pytest

from fairthresh import cli


@pytest.fixture(autouse=True)
def _empty_scored_memo():
    """Each test starts from an empty memo of scored repetitions."""
    cli._scored_memo.clear()
    yield
    cli._scored_memo.clear()
