import pytest

from degenums import series


@pytest.fixture
def in_suite_scope(monkeypatch):
    # the stores of series, numbers and algorithms keep what they build only
    # while run_identity_suite runs; the tests that read a store directly run
    # their calls as if inside the suite
    monkeypatch.setattr(series, "_keeping", True)
