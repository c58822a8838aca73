"""Shared fixtures for the observability-layer tests.

The expensive ingredient — an executed campaign — is computed once per
session and shared; server tests get a fresh store file seeded from it.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import table_one_spec
from repro.store import RunStore


class FakeClock:
    """A deterministic injectable monotonic source."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture(scope="session")
def table1_result():
    """One executed table1 campaign (3 runs, 2 samples), shared per session."""
    return CampaignRunner(table_one_spec(samples=2)).run()


@pytest.fixture
def seeded_store(tmp_path, table1_result):
    """A fresh store file pre-loaded with the table1 campaign snapshot."""
    store = RunStore(tmp_path / "runs.db")
    store.save_campaign(table1_result)
    yield store
    store.close()
