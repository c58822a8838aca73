"""Mixed-system campaigns: one grid spanning all three packs."""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, CasePoint, SchemePoint, M_TEST_NONE


def mixed_spec(samples: int = 2) -> CampaignSpec:
    return CampaignSpec(
        name="mixed-systems",
        schemes=(SchemePoint(2),),
        cases=(
            CasePoint("bolus-request", samples=samples),
            CasePoint("sense-inhibit", samples=samples, system="pacemaker"),
            CasePoint("engage", samples=samples, system="cruise"),
        ),
        m_test=M_TEST_NONE,
    )


class TestMixedCampaign:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return CampaignRunner(mixed_spec(), workers=1).run()

    def test_every_system_conforms_on_scheme_two(self, serial_result):
        by_system = {record.spec.system: record for record in serial_result.records}
        assert set(by_system) == {"gpca", "pacemaker", "cruise"}
        for system, record in sorted(by_system.items()):
            assert record.passed, f"{system}: {record.spec.label}"

    def test_labels_tag_the_non_default_systems(self, serial_result):
        labels = [record.spec.label for record in serial_result.records]
        assert labels == [
            "scheme2/bolus-request",
            "scheme2/pacemaker:sense-inhibit",
            "scheme2/cruise:engage",
        ]

    def test_table_one_uses_each_packs_scheme_names(self, serial_result):
        assert "Scheme 2" in serial_result.table_one().render()

    @pytest.mark.slow
    def test_parallel_aggregate_is_byte_identical_to_serial(self, serial_result):
        parallel_runner = CampaignRunner(mixed_spec(), workers=2)
        parallel = parallel_runner.run()
        assert parallel.to_json() == serial_result.to_json()

    def test_round_trip_preserves_the_grid(self):
        spec = mixed_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
