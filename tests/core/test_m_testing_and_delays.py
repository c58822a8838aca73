"""Unit tests for M-testing delay segmentation on synthetic traces."""

import pytest

from repro.core.delays import DelaySegments, SegmentStatistics, TransitionDelay, summarize_segments
from repro.core.four_variables import Event, EventKind, FourVariableInterface, Trace
from repro.core.m_testing import MTestAnalyzer, MTestingError
from repro.core.r_testing import evaluate_r_trace
from repro.core.requirements import EventSpec, TimingRequirement
from repro.core.test_generation import RTestCase, Stimulus
from repro.platform.kernel.time import ms


def make_interface():
    interface = FourVariableInterface()
    interface.monitored("m-Req")
    interface.input("i-Req")
    interface.output("o-Act")
    interface.controlled("c-Act")
    interface.link_input("m-Req", "i-Req")
    interface.link_output("o-Act", "c-Act")
    return interface


def make_requirement():
    return TimingRequirement(
        requirement_id="REQ-M",
        stimulus=EventSpec.becomes("m-Req", True),
        response=EventSpec.becomes_positive("c-Act"),
        deadline_us=ms(100),
        model_trigger_event="i-Req",
        model_response_variable="o-Act",
        model_response_value=1,
    )


def instrumented_trace():
    """m at 10, i at 30, transitions, o at 70, c at 90 (all in ms)."""
    return Trace(
        [
            Event(EventKind.M, "m-Req", True, ms(10)),
            Event(EventKind.I, "i-Req", True, ms(30)),
            Event(EventKind.TRANSITION_START, "t_accept", None, ms(32)),
            Event(EventKind.TRANSITION_END, "t_accept", None, ms(43)),
            Event(EventKind.TRANSITION_START, "t_respond", None, ms(50)),
            Event(EventKind.TRANSITION_END, "t_respond", None, ms(70)),
            Event(EventKind.O, "o-Act", 1, ms(70)),
            Event(EventKind.C, "c-Act", 1, ms(90)),
        ]
    )


class TestDelaySegments:
    def test_segment_arithmetic(self):
        segments = DelaySegments(0, ms(10), ms(30), ms(70), ms(90))
        assert segments.input_delay_us == ms(20)
        assert segments.code_delay_us == ms(40)
        assert segments.output_delay_us == ms(20)
        assert segments.end_to_end_us == ms(80)
        assert segments.complete
        assert segments.segments_consistent()
        assert segments.dominant_segment() == "code"

    def test_incomplete_segments(self):
        segments = DelaySegments(0, ms(10), ms(30), None, None)
        assert segments.code_delay_us is None
        assert not segments.complete
        assert segments.dominant_segment() is None
        assert not segments.segments_consistent()

    def test_transition_delay_duration(self):
        delay = TransitionDelay("t", ms(10), ms(21))
        assert delay.duration_us == ms(11)
        with pytest.raises(ValueError):
            TransitionDelay("t", ms(10), ms(5))

    def test_summarize_segments(self):
        segments = [
            DelaySegments(0, 0, ms(10), ms(30), ms(40)),
            DelaySegments(1, 0, ms(20), ms(50), ms(70)),
        ]
        stats = {item.name: item for item in summarize_segments(segments)}
        assert stats["input_delay"].mean_us == ms(15)
        assert stats["end_to_end"].max_us == ms(70)
        assert SegmentStatistics.from_values("x", []) is None


class TestMTestAnalyzer:
    def test_segments_extracted_from_trace(self):
        analyzer = MTestAnalyzer(make_interface(), make_requirement())
        report = analyzer.analyze(instrumented_trace(), sut_name="synthetic")
        assert len(report.segments) == 1
        segment = report.segments[0]
        assert segment.input_delay_us == ms(20)
        assert segment.code_delay_us == ms(40)
        assert segment.output_delay_us == ms(20)
        assert segment.segments_consistent()

    def test_transition_delays_paired(self):
        analyzer = MTestAnalyzer(make_interface(), make_requirement())
        report = analyzer.analyze(instrumented_trace())
        delays = {d.transition: d.duration_us for d in report.segments[0].transition_delays}
        assert delays == {"t_accept": ms(11), "t_respond": ms(20)}
        assert report.mean_transition_delay_us("t_accept") == ms(11)
        assert report.transition_names() == ["t_accept", "t_respond"]

    def test_missing_mapping_raises(self):
        interface = FourVariableInterface()
        interface.monitored("m-Req")
        interface.controlled("c-Act")
        with pytest.raises(MTestingError):
            MTestAnalyzer(interface, make_requirement())

    def test_missing_response_gives_incomplete_segment(self):
        trace = Trace(
            [
                Event(EventKind.M, "m-Req", True, ms(10)),
                Event(EventKind.I, "i-Req", True, ms(30)),
            ]
        )
        analyzer = MTestAnalyzer(make_interface(), make_requirement())
        report = analyzer.analyze(trace)
        segment = report.segments[0]
        assert segment.i_time_us == ms(30)
        assert segment.o_time_us is None and segment.c_time_us is None
        assert not segment.complete

    def test_dominant_segment_diagnosis(self):
        analyzer = MTestAnalyzer(make_interface(), make_requirement())
        report = analyzer.analyze(instrumented_trace())
        assert report.dominant_segment() == "code"
        assert "code" in report.summary()

    def test_analyze_violations_restricts_to_failing_samples(self):
        requirement = make_requirement()
        # Two stimuli: the first passes (80 ms), the second fails (150 ms).
        events = [
            Event(EventKind.M, "m-Req", True, ms(10)),
            Event(EventKind.I, "i-Req", True, ms(20)),
            Event(EventKind.O, "o-Act", 1, ms(60)),
            Event(EventKind.C, "c-Act", 1, ms(90)),
            Event(EventKind.C, "c-Act", 0, ms(200)),
            Event(EventKind.M, "m-Req", True, ms(1000)),
            Event(EventKind.I, "i-Req", True, ms(1050)),
            Event(EventKind.O, "o-Act", 1, ms(1100)),
            Event(EventKind.C, "c-Act", 1, ms(1150)),
        ]
        trace = Trace(sorted(events, key=lambda event: event.timestamp_us))
        case = RTestCase(
            name="two",
            requirement=requirement,
            stimuli=(Stimulus(ms(10), "m-Req"), Stimulus(ms(1000), "m-Req")),
        )
        r_report = evaluate_r_trace("replay", case, trace)
        assert r_report.violation_count == 1
        analyzer = MTestAnalyzer(make_interface(), requirement)
        m_report = analyzer.analyze_violations(r_report)
        assert m_report.analyzed_sample_indices == [1]
        assert m_report.segments[0].end_to_end_us == ms(150)

    def test_analyze_violations_requires_trace(self):
        from repro.core.r_testing import RTestReport

        requirement = make_requirement()
        case = RTestCase(name="empty", requirement=requirement, stimuli=())
        report = RTestReport(sut_name="x", test_case=case, samples=[], trace=None)
        analyzer = MTestAnalyzer(make_interface(), requirement)
        with pytest.raises(MTestingError):
            analyzer.analyze_violations(report)
