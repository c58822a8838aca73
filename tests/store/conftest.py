"""Shared fixtures for the store-layer tests.

Executing campaigns is the expensive part of these tests, so the small
table1 campaign (2 samples) is computed once per session and shared; every
test that needs a *store* gets a fresh one seeded from those records.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import table_one_spec
from repro.store import RunStore


@pytest.fixture(scope="session")
def table1_spec():
    return table_one_spec(samples=2)


@pytest.fixture(scope="session")
def table1_result(table1_spec):
    """One executed table1 campaign (3 runs), shared across the session."""
    return CampaignRunner(table1_spec).run()


@pytest.fixture
def seeded_store(tmp_path, table1_result):
    """A fresh store file pre-loaded with the table1 campaign snapshot."""
    store = RunStore(tmp_path / "runs.db")
    store.save_campaign(table1_result)
    yield store
    store.close()
