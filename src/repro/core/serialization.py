"""Serialization of traces and test reports.

Measurement campaigns on real hardware produce traces on the target and
analyse them on a workstation; this module provides the interchange format
for that workflow (and for archiving benchmark runs):

* traces — JSON round-trip (every event with kind, variable, value, timestamp
  and metadata);
* R-test reports — JSON export of verdicts plus CSV export of the sample
  table;
* M-test reports — JSON export of the delay segments.

Only built-in types are emitted, so the files are stable across library
versions and readable by any tooling.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional

from .delays import DelaySegments, TransitionDelay
from .four_variables import Event, EventKind, Trace
from .m_testing import MTestReport
from .r_testing import RSample, RTestReport, SampleVerdict
from .requirements import EventSpec, MatchMode, TimingRequirement
from .test_generation import RTestCase

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Requirements
# ----------------------------------------------------------------------
def event_spec_to_dict(spec: EventSpec) -> Dict[str, Any]:
    """Convert an event specification to a JSON-serialisable dictionary."""
    return {
        "variable": spec.variable,
        "mode": spec.mode.value,
        "value": spec.value,
        "description": spec.description,
    }


def event_spec_from_dict(payload: Dict[str, Any]) -> EventSpec:
    """Rebuild an event specification from :func:`event_spec_to_dict` output."""
    return EventSpec(
        variable=payload["variable"],
        mode=MatchMode(payload.get("mode", MatchMode.BECOMES.value)),
        value=payload.get("value", True),
        description=payload.get("description", ""),
    )


def requirement_to_dict(requirement: TimingRequirement) -> Dict[str, Any]:
    """Convert a timing requirement to a dictionary that round-trips fully.

    Unlike the summary block embedded in R-test report exports, this encoding
    carries every field — stimulus/response specifications, separation bound
    and the optional model-level counterpart — so scenario programs can embed
    requirements in campaign artefacts and reconstruct them exactly.
    """
    return {
        "id": requirement.requirement_id,
        "stimulus": event_spec_to_dict(requirement.stimulus),
        "response": event_spec_to_dict(requirement.response),
        "deadline_us": requirement.deadline_us,
        "description": requirement.description,
        "timeout_us": requirement.timeout_us,
        "min_stimulus_separation_us": requirement.min_stimulus_separation_us,
        "model_trigger_event": requirement.model_trigger_event,
        "model_response_variable": requirement.model_response_variable,
        "model_response_value": requirement.model_response_value,
        "model_trigger_state": requirement.model_trigger_state,
    }


def requirement_from_dict(payload: Dict[str, Any]) -> TimingRequirement:
    """Rebuild a timing requirement from :func:`requirement_to_dict` output."""
    return TimingRequirement(
        requirement_id=payload["id"],
        stimulus=event_spec_from_dict(payload["stimulus"]),
        response=event_spec_from_dict(payload["response"]),
        deadline_us=payload["deadline_us"],
        description=payload.get("description", ""),
        timeout_us=payload.get("timeout_us"),
        min_stimulus_separation_us=payload.get("min_stimulus_separation_us", 0),
        model_trigger_event=payload.get("model_trigger_event"),
        model_response_variable=payload.get("model_response_variable"),
        model_response_value=payload.get("model_response_value"),
        model_trigger_state=payload.get("model_trigger_state"),
    )


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    """Convert a trace to a JSON-serialisable dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "events": [
            {
                "kind": event.kind.value,
                "variable": event.variable,
                "value": event.value,
                "timestamp_us": event.timestamp_us,
                "meta": dict(event.meta),
            }
            for event in trace
        ],
    }


def trace_from_dict(payload: Dict[str, Any]) -> Trace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version}")
    # Stream straight into the trace's batch-validating builder path rather
    # than materialising an intermediate event list first.
    events = (
        Event(
            kind=EventKind(item["kind"]),
            variable=item["variable"],
            value=item["value"],
            timestamp_us=item["timestamp_us"],
            meta=item.get("meta", {}),
        )
        for item in payload.get("events", [])
    )
    return Trace(events)


# ----------------------------------------------------------------------
# R-test reports
# ----------------------------------------------------------------------
def r_report_to_dict(report: RTestReport, *, include_trace: bool = False) -> Dict[str, Any]:
    """Convert an R-test report (verdicts + metadata) to a dictionary."""
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "sut": report.sut_name,
        "test_case": report.test_case.name,
        "requirement": {
            "id": report.requirement.requirement_id,
            "description": report.requirement.description,
            "deadline_us": report.requirement.deadline_us,
            "timeout_us": report.requirement.effective_timeout_us,
        },
        "passed": report.passed,
        "violations": report.violation_count,
        "timeouts": report.timeout_count,
        "samples": [
            {
                "index": sample.index,
                "stimulus_time_us": sample.stimulus_time_us,
                "response_time_us": sample.response_time_us,
                "latency_us": sample.latency_us,
                "verdict": sample.verdict.value,
            }
            for sample in report.samples
        ],
    }
    if include_trace and report.trace is not None:
        payload["trace"] = trace_to_dict(report.trace)
    return payload


def r_report_samples_from_dict(payload: Dict[str, Any]) -> List[RSample]:
    """Rebuild the sample verdicts of an exported R-test report."""
    return [
        RSample(
            index=item["index"],
            stimulus_time_us=item["stimulus_time_us"],
            response_time_us=item.get("response_time_us"),
            latency_us=item.get("latency_us"),
            verdict=SampleVerdict(item["verdict"]),
        )
        for item in payload.get("samples", [])
    ]


def r_report_from_dict(payload: Dict[str, Any], test_case: RTestCase) -> RTestReport:
    """Rebuild an R-test report from :func:`r_report_to_dict` output.

    The test case is not part of the export (its schedule can be regenerated
    from the generation parameters), so the caller supplies it; the campaign
    engine rebuilds it deterministically from the run's spec.  The trace is
    restored when the export carried one (``include_trace=True``).
    """
    trace = None
    if "trace" in payload:
        trace = trace_from_dict(payload["trace"])
    return RTestReport(
        sut_name=payload["sut"],
        test_case=test_case,
        samples=r_report_samples_from_dict(payload),
        trace=trace,
    )


def r_report_to_csv(report: RTestReport) -> str:
    """Render the per-sample verdict table as CSV (one row per sample)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["sample", "stimulus_time_ms", "response_time_ms", "latency_ms", "verdict"]
    )
    for sample in report.samples:
        writer.writerow(
            [
                sample.index,
                f"{sample.stimulus_time_us / 1000:.3f}",
                "" if sample.response_time_us is None else f"{sample.response_time_us / 1000:.3f}",
                "" if sample.latency_us is None else f"{sample.latency_us / 1000:.3f}",
                sample.verdict.value,
            ]
        )
    return buffer.getvalue()


# ----------------------------------------------------------------------
# M-test reports
# ----------------------------------------------------------------------
def m_report_to_dict(report: MTestReport) -> Dict[str, Any]:
    """Convert an M-test report (delay segments) to a dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "sut": report.sut_name,
        "requirement": report.requirement.requirement_id,
        "dominant_segment": report.dominant_segment(),
        "segments": [
            {
                "sample_index": segment.sample_index,
                "m_time_us": segment.m_time_us,
                "i_time_us": segment.i_time_us,
                "o_time_us": segment.o_time_us,
                "c_time_us": segment.c_time_us,
                "input_delay_us": segment.input_delay_us,
                "code_delay_us": segment.code_delay_us,
                "output_delay_us": segment.output_delay_us,
                "end_to_end_us": segment.end_to_end_us,
                "transitions": [
                    {
                        "transition": delay.transition,
                        "start_us": delay.start_us,
                        "end_us": delay.end_us,
                    }
                    for delay in segment.transition_delays
                ],
            }
            for segment in report.segments
        ],
    }


def segments_from_dict(payload: Dict[str, Any]) -> List[DelaySegments]:
    """Rebuild the delay segments of an exported M-test report."""
    segments = []
    for item in payload.get("segments", []):
        segments.append(
            DelaySegments(
                sample_index=item["sample_index"],
                m_time_us=item.get("m_time_us"),
                i_time_us=item.get("i_time_us"),
                o_time_us=item.get("o_time_us"),
                c_time_us=item.get("c_time_us"),
                transition_delays=[
                    TransitionDelay(t["transition"], t["start_us"], t["end_us"])
                    for t in item.get("transitions", [])
                ],
            )
        )
    return segments


def m_report_from_dict(payload: Dict[str, Any], requirement: TimingRequirement) -> MTestReport:
    """Rebuild an M-test report from :func:`m_report_to_dict` output.

    Like :func:`r_report_from_dict`, the requirement object itself is supplied
    by the caller (the export only carries its identifier).
    """
    segments = segments_from_dict(payload)
    return MTestReport(
        sut_name=payload["sut"],
        requirement=requirement,
        segments=segments,
        analyzed_sample_indices=[segment.sample_index for segment in segments],
    )


def m_report_to_json(report: MTestReport, *, indent: Optional[int] = None) -> str:
    return json.dumps(m_report_to_dict(report), indent=indent)


def r_report_to_json(report: RTestReport, *, include_trace: bool = False, indent: Optional[int] = None) -> str:
    return json.dumps(r_report_to_dict(report, include_trace=include_trace), indent=indent)
