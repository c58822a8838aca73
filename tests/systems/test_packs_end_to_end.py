"""End-to-end layered testing of the pacemaker and cruise/AEB packs.

Each new pack must survive the paper's full pipeline: statechart lowering
through codegen, R-testing on schemes 1 and 2, a scheme-3 verdict, and
M-test segment analysis of the recorded trace.
"""

from __future__ import annotations

import pytest

from repro.campaign.cache import ArtifactCache
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.systems.cruise import CRUISE_PACK
from repro.systems.pacemaker import PACEMAKER_PACK

PACKS = {
    "pacemaker": (PACEMAKER_PACK, "sense-inhibit"),
    "cruise": (CRUISE_PACK, "engage"),
}


@pytest.fixture(scope="module")
def artifact_cache():
    return ArtifactCache()


def run_pack_case(pack, case, scheme, *, samples=3, seed=5, artifacts=None):
    test_case = pack.case_builders[case](samples).compile(seed)

    def factory():
        return pack.build_system(scheme, seed=11, artifacts=artifacts)

    return execute_r_test(factory, test_case), test_case


@pytest.mark.parametrize("pack_id", sorted(PACKS))
class TestRTesting:
    def test_schemes_one_and_two_conform(self, pack_id, artifact_cache):
        pack, case = PACKS[pack_id]
        artifacts = artifact_cache.artifacts_for_model(pack.default_model)
        for scheme in (1, 2):
            report, _ = run_pack_case(pack, case, scheme, artifacts=artifacts)
            assert report.passed, report.summary()
            assert len(report.samples) == 3

    def test_scheme_three_reaches_a_verdict(self, pack_id, artifact_cache):
        pack, case = PACKS[pack_id]
        artifacts = artifact_cache.artifacts_for_model(pack.default_model)
        report, _ = run_pack_case(pack, case, 3, artifacts=artifacts)
        # Under interference the verdict may go either way; what matters is
        # that the harness measures every sample and renders a report.
        assert report.passed in (True, False)
        assert len(report.samples) == 3
        assert report.summary()

    def test_every_fixed_case_passes_on_scheme_two(self, pack_id, artifact_cache):
        pack, _ = PACKS[pack_id]
        artifacts = artifact_cache.artifacts_for_model(pack.default_model)
        for case in sorted(pack.case_builders):
            report, _ = run_pack_case(pack, case, 2, artifacts=artifacts)
            assert report.passed, f"{pack.system_id}/{case}: {report.summary()}"


@pytest.mark.parametrize("pack_id", sorted(PACKS))
class TestMTesting:
    def test_traces_segment_under_the_m_analyzer(self, pack_id, artifact_cache):
        pack, case = PACKS[pack_id]
        artifacts = artifact_cache.artifacts_for_model(pack.default_model)
        report, test_case = run_pack_case(pack, case, 2, artifacts=artifacts)
        analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
        m_report = analyzer.analyze(report.trace, sut_name=report.sut_name)
        assert len(m_report.complete_segments) >= 1
        assert m_report.summary()
