"""Benchmark: Fig. 1 — the end-to-end model-based implementation pipeline.

Runs the whole flow the paper's Fig. 1 describes — model construction,
verification, code generation, platform integration and one executed bolus
scenario — and reports how long each stage of the reproduction takes.  This is
a tooling benchmark (our simulator, not the paper's testbed), but it documents
that the full pipeline is cheap enough to run inside a test suite.
"""

from __future__ import annotations

import pytest

from repro.codegen import generate_code
from repro.core import EventKind, RTestRunner
from repro.gpca import bolus_request_test_case, build_fig2_statechart, req1_bolus_start, scheme_factory
from repro.model.verification import BoundedResponseChecker


def test_model_build_and_verification(benchmark):
    def stage():
        chart = build_fig2_statechart()
        checker = BoundedResponseChecker(chart)
        return checker.check(req1_bolus_start().to_model_requirement())

    result = benchmark(stage)
    assert result.passed


def test_code_generation(benchmark):
    chart = build_fig2_statechart()
    artifacts = benchmark(lambda: generate_code(chart))
    assert len(artifacts.code_model.transitions) == 5
    assert "switch" in artifacts.c_source


@pytest.mark.parametrize("scheme", [1, 2, 3])
def test_integration_and_single_bolus(benchmark, scheme, write_artifact):
    """Build the implemented system and execute one bolus request end to end."""
    test_case = bolus_request_test_case(samples=1, seed=1)

    def stage():
        runner = RTestRunner(scheme_factory(scheme, seed=scheme))
        return runner.run(test_case)

    report = benchmark.pedantic(stage, rounds=3, iterations=1)
    # The pipeline produced a physically visible motor start (or a time-out on
    # the interfered scheme); either way the trace contains the full m/i/o
    # instrumentation path.
    trace = report.trace
    assert trace.select(kind=EventKind.M, variable="m-BolusReq")
    assert trace.select(kind=EventKind.I, variable="i-BolusReq")
    assert trace.select(kind=EventKind.O, variable="o-MotorState")
    write_artifact(
        f"pipeline_scheme{scheme}.txt",
        f"{report.sut_name}: sample latency = {report.samples[0].latency_label()} ms",
    )
