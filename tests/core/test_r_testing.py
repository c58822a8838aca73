"""Unit tests for R-testing using a synthetic (trace-replay) system under test."""

from repro.core.four_variables import Event, EventKind, FourVariableInterface, Trace
from repro.core.r_testing import SampleVerdict, evaluate_r_trace, execute_r_test
from repro.core.requirements import EventSpec, TimingRequirement
from repro.core.sut import SystemUnderTest
from repro.core.test_generation import RTestCase, Stimulus
from repro.platform.kernel.time import ms


def make_requirement(deadline_ms=100, timeout_ms=500):
    return TimingRequirement(
        requirement_id="R-TEST",
        stimulus=EventSpec.becomes("m-Req", True),
        response=EventSpec.becomes_positive("c-Act"),
        deadline_us=ms(deadline_ms),
        timeout_us=ms(timeout_ms),
    )


class ReplaySut(SystemUnderTest):
    """A fake implemented system with a fixed response latency per stimulus.

    Latency ``None`` means the response is never produced (a MAX sample).
    """

    name = "replay-sut"

    def __init__(self, latencies_ms):
        self._latencies = list(latencies_ms)
        self._stimuli = []
        self._interface = FourVariableInterface()
        self._interface.monitored("m-Req")
        self._interface.controlled("c-Act")
        self._trace = Trace()

    @property
    def interface(self):
        return self._interface

    def apply_stimulus(self, stimulus: Stimulus) -> None:
        self._stimuli.append(stimulus)

    def run(self, until_us: int) -> None:
        events = []
        for index, stimulus in enumerate(self._stimuli):
            events.append(Event(EventKind.M, "m-Req", True, stimulus.at_us))
            latency = self._latencies[index] if index < len(self._latencies) else None
            if latency is not None:
                events.append(Event(EventKind.C, "c-Act", 1, stimulus.at_us + ms(latency)))
        self._trace = Trace(sorted(events, key=lambda event: event.timestamp_us))

    @property
    def trace(self):
        return self._trace


def make_case(requirement, count=3, spacing_ms=1000):
    stimuli = tuple(Stimulus(ms(10 + index * spacing_ms), "m-Req") for index in range(count))
    return RTestCase(name="case", requirement=requirement, stimuli=stimuli)


class TestVerdicts:
    def test_all_within_deadline_passes(self):
        requirement = make_requirement(deadline_ms=100)
        report = execute_r_test(lambda: ReplaySut([50, 80, 99]), make_case(requirement))
        assert report.passed
        assert report.violation_count == 0
        assert [sample.verdict for sample in report.samples] == [SampleVerdict.PASS] * 3

    def test_latency_above_deadline_fails(self):
        requirement = make_requirement(deadline_ms=100)
        report = execute_r_test(lambda: ReplaySut([50, 120, 80]), make_case(requirement))
        assert not report.passed
        assert report.violation_count == 1
        assert report.samples[1].verdict is SampleVerdict.FAIL

    def test_missing_response_is_max(self):
        requirement = make_requirement()
        report = execute_r_test(lambda: ReplaySut([50, None, 80]), make_case(requirement))
        assert report.samples[1].verdict is SampleVerdict.MAX
        assert report.samples[1].latency_label() == "MAX"
        assert report.timeout_count == 1

    def test_latency_exactly_at_deadline_passes(self):
        requirement = make_requirement(deadline_ms=100)
        report = execute_r_test(lambda: ReplaySut([100]), make_case(requirement, count=1))
        assert report.passed

    def test_response_after_timeout_is_max(self):
        requirement = make_requirement(deadline_ms=100, timeout_ms=300)
        report = execute_r_test(lambda: ReplaySut([400]), make_case(requirement, count=1))
        assert report.samples[0].verdict is SampleVerdict.MAX

    def test_report_statistics(self):
        requirement = make_requirement()
        report = execute_r_test(lambda: ReplaySut([50, 150, 100]), make_case(requirement))
        assert report.max_latency_us == ms(150)
        assert len(report.violating_samples) == 1

    def test_summary_mentions_requirement_and_verdict(self):
        requirement = make_requirement()
        report = execute_r_test(lambda: ReplaySut([50]), make_case(requirement, count=1))
        summary = report.summary()
        assert "R-TEST" in summary and "PASS" in summary


class TestRTestingUsesOnlyMCEvents:
    def test_io_events_in_trace_are_ignored(self):
        """R-testing must judge from m/c events only (the paper's constraint)."""
        requirement = make_requirement(deadline_ms=100)

        class NoisySut(ReplaySut):
            def run(self, until_us):
                super().run(until_us)
                events = list(self._trace)
                # Insert an o-event that *looks* like an early response.
                events.append(Event(EventKind.O, "c-Act", 1, ms(1)))
                self._trace = Trace(sorted(events, key=lambda event: event.timestamp_us))

        report = execute_r_test(lambda: NoisySut([150]), make_case(requirement, count=1))
        assert report.samples[0].verdict is SampleVerdict.FAIL

    def test_evaluate_existing_trace(self):
        requirement = make_requirement()
        trace = Trace(
            [
                Event(EventKind.M, "m-Req", True, ms(10)),
                Event(EventKind.C, "c-Act", 1, ms(70)),
            ]
        )
        case = make_case(requirement, count=1)
        report = evaluate_r_trace("offline", case, trace)
        assert report.sut_name == "offline"
        assert report.samples[0].latency_us == ms(60)
