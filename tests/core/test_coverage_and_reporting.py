"""Unit tests for coverage/sufficiency metrics, probes and report rendering."""

import pytest

from repro.core.coverage import (
    TransitionCoverage,
    assess_sufficiency,
    wilson_interval,
)
from repro.core.four_variables import Event, EventKind, Trace
from repro.core.instrumentation import ProbeConfiguration
from repro.core.r_testing import RSample, RTestReport, SampleVerdict
from repro.core.report import render_layered_summary, render_m_report, render_r_report
from repro.core.requirements import EventSpec, TimingRequirement
from repro.core.test_generation import RTestCase, Stimulus
from repro.platform.kernel.time import ms, seconds
from repro.systems import get_pack


def make_r_report(latencies_ms, deadline_ms=100):
    requirement = TimingRequirement(
        requirement_id="REQ-X",
        stimulus=EventSpec.becomes("m-Req", True),
        response=EventSpec.becomes_positive("c-Act"),
        deadline_us=ms(deadline_ms),
    )
    case = RTestCase(
        name="case",
        requirement=requirement,
        stimuli=tuple(Stimulus(ms(10 + 1000 * i), "m-Req") for i in range(len(latencies_ms))),
    )
    samples = []
    for index, latency in enumerate(latencies_ms):
        if latency is None:
            verdict = SampleVerdict.MAX
        elif latency <= deadline_ms:
            verdict = SampleVerdict.PASS
        else:
            verdict = SampleVerdict.FAIL
        samples.append(
            RSample(
                index=index,
                stimulus_time_us=ms(10 + 1000 * index),
                response_time_us=None if latency is None else ms(10 + 1000 * index + latency),
                latency_us=None if latency is None else ms(latency),
                verdict=verdict,
            )
        )
    return RTestReport(sut_name="sut", test_case=case, samples=samples)


class TestTransitionCoverage:
    def test_coverage_from_trace(self, fig2_artifacts):
        coverage = TransitionCoverage.for_code_model(fig2_artifacts.code_model)
        trace = Trace(
            [
                Event(EventKind.TRANSITION_START, "t_bolus_req", None, 10),
                Event(EventKind.TRANSITION_START, "t_start_infusion", None, 20),
            ]
        )
        coverage.add_trace(trace)
        assert coverage.ratio == pytest.approx(2 / 5)
        assert "t_bolus_done" in coverage.uncovered

    def test_full_coverage_summary(self, fig2_artifacts):
        coverage = TransitionCoverage.for_code_model(fig2_artifacts.code_model)
        coverage.covered.update(fig2_artifacts.code_model.transition_names)
        assert coverage.ratio == 1.0
        assert "uncovered: none" in coverage.summary()


class TestSufficiency:
    def test_wilson_interval_bounds(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        assert 0 < high < 0.35
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_interval_widens_with_confidence(self):
        highs = [wilson_interval(0, 10, confidence)[1] for confidence in (0.80, 0.95, 0.999)]
        assert highs[0] < highs[1] < highs[2]
        for confidence in (0, 1):
            with pytest.raises(ValueError):
                wilson_interval(0, 10, confidence)

    def test_assessment_clean_pass(self):
        assessment = assess_sufficiency(make_r_report([50] * 10))
        assert assessment.violations == 0

    def test_assessment_with_violation_is_conclusive(self):
        assessment = assess_sufficiency(make_r_report([50, 150, 60]))
        assert assessment.violations == 1


class TestProbes:
    SOFTWARE_BOUNDARY = (
        EventKind.I,
        EventKind.O,
        EventKind.TRANSITION_START,
        EventKind.TRANSITION_END,
    )

    @staticmethod
    def _bolus_trace(**probes):
        system = get_pack("gpca").build_system(2, seed=1, **probes)
        system.apply_stimulus(Stimulus(ms(100), "m-BolusReq"))
        system.run(seconds(1))
        return system.trace

    def test_probe_level_selects_the_boundaries_a_built_system_records(self):
        r_level = self._bolus_trace(probes=ProbeConfiguration.r_level())
        assert r_level.select(kind=EventKind.M) and r_level.select(kind=EventKind.C)
        assert not any(r_level.select(kind=kind) for kind in self.SOFTWARE_BOUNDARY)
        default = self._bolus_trace()
        assert default.select(kind=EventKind.M) and default.select(kind=EventKind.C)
        assert all(default.select(kind=kind) for kind in self.SOFTWARE_BOUNDARY)


class TestReportRendering:
    def test_r_report_rendering_includes_all_samples(self):
        report = make_r_report([50, 150, None])
        text = render_r_report(report)
        assert "REQ-X" in text
        assert "MAX" in text
        assert text.count("\n") > 5

    def test_m_report_rendering(self, pump_interface):
        from repro.core.m_testing import MTestAnalyzer
        from repro.gpca.requirements import req1_bolus_start

        requirement = req1_bolus_start()
        trace = Trace(
            [
                Event(EventKind.M, "m-BolusReq", True, ms(10)),
                Event(EventKind.I, "i-BolusReq", True, ms(30)),
                Event(EventKind.TRANSITION_START, "t_bolus_req", None, ms(31)),
                Event(EventKind.TRANSITION_END, "t_bolus_req", None, ms(42)),
                Event(EventKind.O, "o-MotorState", 1, ms(60)),
                Event(EventKind.C, "c-PumpMotor", 1, ms(75)),
            ]
        )
        analyzer = MTestAnalyzer(pump_interface, requirement)
        report = analyzer.analyze(trace, sut_name="demo")
        text = render_m_report(report)
        assert "t_bolus_req" in text
        assert "dominant delay segment" in text

    def test_layered_summary_pass_path(self):
        report = make_r_report([50, 60])
        text = render_layered_summary(report, None)
        assert "M-testing is not required" in text

    def test_layered_summary_fail_without_m(self):
        report = make_r_report([150])
        text = render_layered_summary(report, None)
        assert "run M-testing" in text
