"""Canonical-payload round trips and the stable CSV schema."""

from __future__ import annotations

import json

from repro.campaign import (
    SUMMARY_FIELDS,
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    CasePoint,
    RunSpec,
    SchemePoint,
    scenario_grid_spec,
    table_one_spec,
)


def test_empty_campaign_csv_still_has_the_full_header():
    result = CampaignResult(spec=table_one_spec(samples=2), records=[])
    csv_text = result.to_csv()
    assert csv_text.strip() == ",".join(SUMMARY_FIELDS)


def test_summary_rows_match_the_declared_schema():
    result = CampaignRunner(table_one_spec(samples=2)).run()
    for row in result.summary_rows():
        assert tuple(row.keys()) == SUMMARY_FIELDS
    header = result.to_csv().splitlines()[0]
    assert header == ",".join(SUMMARY_FIELDS)


def test_campaign_result_json_round_trip_is_byte_identical():
    """to_dict → rebuild → re-serialize must round-trip bit for bit."""
    result = CampaignRunner(table_one_spec(samples=2)).run()
    rebuilt = CampaignResult.from_dict(json.loads(result.to_json()))
    assert rebuilt.to_json() == result.to_json()
    assert rebuilt.to_csv() == result.to_csv()


def test_program_backed_campaign_round_trips():
    """Scenario-DSL programs survive the dict round trip inside specs."""
    result = CampaignRunner(scenario_grid_spec(count=1, samples=2)).run()
    rebuilt = CampaignResult.from_dict(json.loads(result.to_json()))
    assert rebuilt.to_json() == result.to_json()
    assert rebuilt.records[0].spec.program is not None


def test_campaign_spec_round_trip():
    spec = CampaignSpec(
        name="mixed",
        schemes=(SchemePoint(1, period_us=20000), SchemePoint(3, interference_scale=0.5)),
        cases=(CasePoint("bolus-request", samples=3, seed=9),),
        base_seed=4,
        m_test="violations",
    )
    rebuilt = CampaignSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.to_dict() == spec.to_dict()


def test_run_spec_round_trip_preserves_every_field():
    for spec in table_one_spec(samples=2).expand():
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()
