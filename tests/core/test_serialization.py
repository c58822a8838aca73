"""Unit tests for trace / report serialization."""

import json
from functools import partial

import pytest

from repro.core.four_variables import Event, EventKind, Trace
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import SampleVerdict, execute_r_test
from repro.core.serialization import (
    m_report_to_dict,
    m_report_to_json,
    r_report_samples_from_dict,
    r_report_to_csv,
    r_report_to_dict,
    r_report_to_json,
    segments_from_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.gpca import bolus_request_program, build_pump_interface, req1_bolus_start
from repro.platform.kernel.time import ms
from repro.systems import GPCA_PACK


@pytest.fixture(scope="module")
def scheme1_reports():
    test_case = bolus_request_program(3).compile(4)
    r_report = execute_r_test(partial(GPCA_PACK.build_system, 1, seed=11), test_case)
    analyzer = MTestAnalyzer(build_pump_interface(), req1_bolus_start())
    m_report = analyzer.analyze(r_report.trace, sut_name=r_report.sut_name)
    return r_report, m_report


class TestTraceSerialization:
    def test_round_trip_preserves_events(self):
        trace = Trace(
            [
                Event(EventKind.M, "m-X", True, ms(1), {"device": "button"}),
                Event(EventKind.I, "i-X", True, ms(2)),
                Event(EventKind.TRANSITION_START, "t", None, ms(3)),
                Event(EventKind.C, "c-X", 2, ms(4)),
            ]
        )
        rebuilt = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))
        assert len(rebuilt) == len(trace)
        for original, copy in zip(trace, rebuilt):
            assert copy.kind is original.kind
            assert copy.variable == original.variable
            assert copy.value == original.value
            assert copy.timestamp_us == original.timestamp_us
        assert rebuilt[0].meta["device"] == "button"

    def test_unknown_format_version_rejected(self):
        payload = trace_to_dict(Trace())
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            trace_from_dict(payload)

    def test_real_platform_trace_round_trips(self, scheme1_reports):
        r_report, _ = scheme1_reports
        rebuilt = trace_from_dict(json.loads(json.dumps(trace_to_dict(r_report.trace))))
        assert len(rebuilt) == len(r_report.trace)


class TestRReportSerialization:
    def test_dict_contains_verdicts_and_metadata(self, scheme1_reports):
        r_report, _ = scheme1_reports
        payload = r_report_to_dict(r_report)
        assert payload["requirement"]["id"] == "REQ1"
        assert payload["passed"] == r_report.passed
        assert len(payload["samples"]) == 3
        samples = r_report_samples_from_dict(payload)
        assert [sample.verdict for sample in samples] == [s.verdict for s in r_report.samples]

    def test_json_is_valid_and_optionally_embeds_trace(self, scheme1_reports):
        r_report, _ = scheme1_reports
        slim = json.loads(r_report_to_json(r_report))
        assert "trace" not in slim
        full = json.loads(r_report_to_json(r_report, include_trace=True))
        assert len(full["trace"]["events"]) == len(r_report.trace)

    def test_csv_has_one_row_per_sample(self, scheme1_reports):
        r_report, _ = scheme1_reports
        lines = r_report_to_csv(r_report).strip().splitlines()
        assert lines[0].startswith("sample,")
        assert len(lines) == 1 + len(r_report.samples)

    def test_verdict_values_round_trip(self):
        assert SampleVerdict("max") is SampleVerdict.MAX


class TestMReportSerialization:
    def test_dict_contains_segments(self, scheme1_reports):
        _, m_report = scheme1_reports
        payload = m_report_to_dict(m_report)
        assert payload["requirement"] == "REQ1"
        assert len(payload["segments"]) == len(m_report.segments)
        first = payload["segments"][0]
        assert first["end_to_end_us"] == m_report.segments[0].end_to_end_us

    def test_segments_round_trip(self, scheme1_reports):
        _, m_report = scheme1_reports
        payload = m_report_to_dict(m_report)
        rebuilt = segments_from_dict(payload)
        assert len(rebuilt) == len(m_report.segments)
        for original, copy in zip(m_report.segments, rebuilt):
            assert copy.input_delay_us == original.input_delay_us
            assert copy.code_delay_us == original.code_delay_us
            assert copy.output_delay_us == original.output_delay_us
            assert len(copy.transition_delays) == len(original.transition_delays)

    def test_json_serialises(self, scheme1_reports):
        _, m_report = scheme1_reports
        payload = json.loads(m_report_to_json(m_report, indent=2))
        assert payload["dominant_segment"] in {"input", "code", "output", None}
