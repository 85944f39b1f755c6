import pytest

from tailfolio import anneal


@pytest.fixture
def serial(monkeypatch):
    """Cost every anneal trial in this process: a forked cost worker would
    keep the calls, points or temperatures that a test's cost, or a
    function it patches, records here."""
    monkeypatch.setattr(anneal, "fork_cpus", lambda *needs: 1)
