"""RunStore persistence: records, snapshots, reopening, thread safety."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.campaign.results import CampaignResult
from repro.store import RunStore
from repro.store.keys import run_key
from repro.store.store import StoreError


def test_put_and_lookup_round_trip(tmp_path, table1_result):
    store = RunStore(tmp_path / "runs.db")
    record = table1_result.records[0]
    [record_id] = store.put_records([record])
    assert record_id == RunStore.record_id(record)
    assert record_id != run_key(record.spec), "record ids also hash the payload"
    assert store.lookup(record.spec) is not None
    assert store.get(record_id) is not None
    assert store.get(run_key(record.spec)) is not None

    found = store.lookup(record.spec)
    assert found is not None
    assert found.spec == record.spec
    assert found.r_payload == record.r_payload
    assert found.m_payload == record.m_payload
    store.close()


def test_lookup_misses_cleanly(tmp_path, table1_result):
    store = RunStore(tmp_path / "runs.db")
    assert store.lookup(table1_result.records[0].spec) is None
    store.close()


def test_get_reattaches_caller_index(seeded_store, table1_result):
    record = table1_result.records[2]
    found = seeded_store.get(run_key(record.spec), index=record.spec.index)
    assert found is not None
    assert found.spec.index == 2
    assert found.to_dict() == record.to_dict()


def test_snapshot_reassembles_byte_identically(seeded_store, table1_result):
    campaign_id = seeded_store.latest_campaign_id()
    loaded = seeded_store.load_campaign(campaign_id)
    assert isinstance(loaded, CampaignResult)
    assert loaded.to_json() == table1_result.to_json()


def test_snapshot_id_is_content_addressed(seeded_store, table1_result):
    first = seeded_store.latest_campaign_id()
    second = seeded_store.save_campaign(table1_result)
    assert second == first
    assert seeded_store.counts() == {"runs": 3, "campaigns": 1}


def test_changed_results_do_not_corrupt_older_snapshots(seeded_store, table1_result):
    """Same grid, different outcome: both snapshots stay byte-exact.

    This is the post-code-change scenario — the coordinate is unchanged but
    the payload is not, so the store must append a new record rather than
    rewrite the one the first snapshot references.
    """
    import copy

    original_id = seeded_store.latest_campaign_id()
    payload = copy.deepcopy(table1_result.to_dict())
    payload["runs"][1]["r"]["passed"] = False
    changed = CampaignResult.from_dict(payload)

    changed_id = seeded_store.save_campaign(changed)
    assert changed_id != original_id
    assert seeded_store.counts() == {"runs": 4, "campaigns": 2}
    assert seeded_store.load_campaign(original_id).to_json() == table1_result.to_json()
    assert seeded_store.load_campaign(changed_id).to_json() == changed.to_json()
    # Resume semantics: the *newest* record at the coordinate wins.
    latest = seeded_store.lookup(table1_result.records[1].spec)
    assert latest.r_payload["passed"] is False


def test_store_survives_reopen(tmp_path, table1_result):
    path = tmp_path / "runs.db"
    with RunStore(path) as store:
        campaign_id = store.save_campaign(table1_result)
    with RunStore(path) as reopened:
        assert reopened.counts() == {"runs": 3, "campaigns": 1}
        assert reopened.load_campaign(campaign_id).to_json() == table1_result.to_json()


def test_unknown_snapshot_raises(seeded_store):
    with pytest.raises(StoreError, match="no campaign snapshot"):
        seeded_store.load_campaign("does-not-exist")


def test_missing_run_row_is_reported(seeded_store, table1_result):
    campaign_id = seeded_store.latest_campaign_id()
    assert seeded_store.delete_run(run_key(table1_result.records[1].spec))
    with pytest.raises(StoreError, match="missing run"):
        seeded_store.load_campaign(campaign_id)


def test_schema_version_mismatch_is_rejected(tmp_path):
    path = tmp_path / "runs.db"
    RunStore(path).close()
    connection = sqlite3.connect(str(path))
    with connection:
        connection.execute("UPDATE store_meta SET value = '999' WHERE key = 'schema_version'")
    connection.close()
    with pytest.raises(StoreError, match="schema version"):
        RunStore(path)


def test_non_database_file_is_rejected_cleanly(tmp_path):
    path = tmp_path / "not-a-db.txt"
    path.write_text("definitely not sqlite", encoding="utf-8")
    with pytest.raises(StoreError, match="not a usable run store"):
        RunStore(path)


def test_run_rows_filter_and_limit(seeded_store):
    rows = seeded_store.run_rows()
    assert len(rows) == 3
    assert {row["scheme"] for row in rows} == {1, 2, 3}
    assert seeded_store.run_rows(scheme=2)[0]["scheme"] == 2
    assert len(seeded_store.run_rows(limit=1)) == 1
    assert seeded_store.run_rows(case="no-such-case") == []


def test_state_token_tracks_content(seeded_store, table1_result):
    token = seeded_store.state_token()
    assert seeded_store.state_token() == token
    seeded_store.delete_run(run_key(table1_result.records[0].spec))
    assert seeded_store.state_token() != token


def test_state_token_survives_delete_then_insert(seeded_store, table1_result):
    """Deleting the newest row and inserting another must not restore the
    token (COUNT/MAX-rowid schemes collide here; the generation counter
    cannot)."""
    token = seeded_store.state_token()
    newest = table1_result.records[-1]
    assert seeded_store.delete_run(run_key(newest.spec))
    seeded_store.put_records(table1_result.records[:1])  # already stored: still a write
    assert seeded_store.state_token() != token


def test_concurrent_readers_share_one_store(seeded_store):
    campaign_id = seeded_store.latest_campaign_id()
    errors = []

    def read() -> None:
        try:
            for _ in range(5):
                assert len(seeded_store.run_rows()) == 3
                assert len(seeded_store.load_campaign(campaign_id)) == 3
        except Exception as error:  # pragma: no cover - only on failure
            errors.append(error)

    threads = [threading.Thread(target=read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
