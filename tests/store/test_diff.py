"""SnapshotDiff: verdict flips, new violations, drift, added/removed runs."""

from __future__ import annotations

import copy

import pytest

from repro.campaign.results import CampaignResult
from repro.store import RunStore
from repro.store.diff import DRIFT_THRESHOLD_US, SnapshotDiff, diff_snapshots
from repro.store.store import StoreError


def _mutated(result: CampaignResult, edit) -> CampaignResult:
    """A deep-copied campaign with ``edit(payload)`` applied to its dict."""
    payload = copy.deepcopy(result.to_dict())
    edit(payload)
    return CampaignResult.from_dict(payload)


def test_identical_snapshots_diff_clean(table1_result):
    diff = SnapshotDiff.between(table1_result, table1_result)
    assert diff.clean
    assert diff.regressions() == []
    assert diff.to_dict()["compared"] == 3
    assert "no changes" in diff.render()


def test_verdict_flip_is_a_regression(table1_result):
    def edit(payload):
        run = payload["runs"][1]  # scheme 2, the passing run
        assert run["r"]["passed"] is True
        run["r"]["passed"] = False
        run["r"]["violations"] = run["r"]["violations"] + 2

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    assert not diff.clean
    regressions = diff.regressions()
    assert [delta.label for delta in regressions] == ["scheme2/bolus-request"]
    assert regressions[0].verdict_flipped
    assert "REGRESSED" in diff.render()
    assert "verdict PASS->FAIL" in diff.render()


def test_fix_is_an_improvement_not_a_regression(table1_result):
    def edit(payload):
        run = payload["runs"][0]  # scheme 1, the failing run
        assert run["r"]["passed"] is False
        run["r"]["passed"] = True
        run["r"]["violations"] = 0

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    assert diff.regressions() == []
    assert [delta.label for delta in diff.improvements()] == ["scheme1/bolus-request"]


def test_new_violations_without_flip_still_regress(table1_result):
    def edit(payload):
        run = payload["runs"][2]  # scheme 3, already failing
        run["r"]["violations"] = run["r"]["violations"] + 1

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    regressed = diff.regressions()
    assert [delta.label for delta in regressed] == ["scheme3/bolus-request"]
    assert not regressed[0].verdict_flipped


def test_latency_and_segment_drift_are_detected(table1_result):
    shift_us = int(DRIFT_THRESHOLD_US * 5000)

    def edit(payload):
        run = payload["runs"][1]
        for sample in run["r"]["samples"]:
            if sample["latency_us"] is not None:
                sample["latency_us"] += shift_us
        for segment in run["m"]["segments"]:
            if segment["code_delay_us"] is not None:
                segment["code_delay_us"] += shift_us

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    (delta,) = [d for d in diff.changed() if d.label == "scheme2/bolus-request"]
    assert delta.latency_drift_us == pytest.approx(shift_us)
    assert delta.drifted
    assert "latency" in diff.render()


def test_seed_changes_still_pair_runs(table1_result):
    """Pairing is semantic: a different seed compares, not added/removed."""

    def edit(payload):
        for run in payload["runs"]:
            run["spec"]["sut_seed"] += 1

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    assert len(diff.deltas) == 3
    assert diff.added == [] and diff.removed == []


def test_grid_changes_show_as_added_and_removed(table1_result):
    def edit(payload):
        run = payload["runs"][2]
        run["spec"]["scheme"] = 1
        run["spec"]["period_us"] = 20000

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    assert diff.added == ["scheme1:period=20ms/bolus-request"]
    assert diff.removed == ["scheme3/bolus-request"]
    assert "only in new" in diff.render()


def test_diff_snapshots_resolves_latest_and_prev(tmp_path, table1_result):
    store = RunStore(tmp_path / "runs.db")
    store.save_campaign(table1_result)

    changed = copy.deepcopy(table1_result.to_dict())
    changed["runs"][1]["r"]["passed"] = False
    store.save_campaign(CampaignResult.from_dict(changed))

    diff = diff_snapshots(store, "prev", "latest")
    assert [delta.label for delta in diff.regressions()] == ["scheme2/bolus-request"]

    with pytest.raises(StoreError, match="no campaign snapshot"):
        diff_snapshots(store, "prev", "no-such-id")
    store.close()


def test_segment_delay_payloads_drive_drift(table1_result):
    """The m-payload really is the drift source (no m-report → no segment drift)."""

    def edit(payload):
        payload["runs"][1]["m"] = None

    diff = SnapshotDiff.between(table1_result, _mutated(table1_result, edit))
    (delta,) = [d for d in diff.deltas if d.label == "scheme2/bolus-request"]
    assert delta.segment_drift_us == {}
