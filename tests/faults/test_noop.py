"""The empty fault plan is a strict no-op (acceptance-pinned).

Instrumenting a system with an empty :class:`FaultPlan` must leave traces and
R-/M-test reports **byte-identical** to the un-instrumented platform, across
all three implementation schemes.  This is what makes the kill matrix's
baseline runs trustworthy: the faults machinery cannot perturb a clean run.
"""

from __future__ import annotations

import pytest

from repro.campaign.worker import execute_run
from repro.campaign.spec import RunSpec, derive_seed
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.core.serialization import m_report_to_dict, r_report_to_dict
from repro.faults.models import FaultPlan
from repro.gpca.interface import build_pump_interface
from repro.gpca.scenarios import bolus_request_program
from repro.systems import get_pack


def trace_signature(trace):
    return [
        (event.kind.value, event.variable, event.value, event.timestamp_us)
        for event in trace.events
    ]


@pytest.mark.parametrize("scheme", [1, 2, 3])
def test_empty_plan_keeps_traces_and_reports_byte_identical(scheme):
    test_case = bolus_request_program(3).compile(7)

    def clean_factory():
        return get_pack("gpca").build_system(scheme, seed=scheme * 11)

    def instrumented_factory():
        system = get_pack("gpca").build_system(scheme, seed=scheme * 11)
        return FaultPlan().instrument(system, seed=5)

    clean = execute_r_test(clean_factory, test_case)
    instrumented = execute_r_test(instrumented_factory, test_case)

    assert trace_signature(instrumented.trace) == trace_signature(clean.trace)
    assert r_report_to_dict(instrumented) == r_report_to_dict(clean)

    analyzer = MTestAnalyzer(build_pump_interface(), test_case.requirement)
    clean_m = analyzer.analyze(clean.trace, sut_name=clean.sut_name)
    instrumented_m = analyzer.analyze(instrumented.trace, sut_name=instrumented.sut_name)
    assert m_report_to_dict(instrumented_m) == m_report_to_dict(clean_m)


def test_worker_treats_empty_plan_and_no_plan_identically():
    """A RunSpec with ``faults=FaultPlan()`` must execute exactly like one
    with ``faults=None`` (payloads compared byte for byte)."""
    seeds = dict(
        case_seed=derive_seed(0, "case", "bolus-request", 2),
        sut_seed=derive_seed(0, "sut", 2, None, None, "bolus-request"),
    )
    bare = RunSpec(index=0, scheme=2, case="bolus-request", samples=2, m_test="all", **seeds)
    empty = RunSpec(
        index=0, scheme=2, case="bolus-request", samples=2, m_test="all",
        faults=FaultPlan(), **seeds,
    )
    bare_record = execute_run(bare)
    empty_record = execute_run(empty)
    assert empty_record.r_payload == bare_record.r_payload
    assert empty_record.m_payload == bare_record.m_payload
