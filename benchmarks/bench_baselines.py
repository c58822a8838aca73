"""Ablation A3: the layered framework versus the related-work baselines.

The paper positions its framework against (i) SIL/HIL functional conformance
testing, which cannot assess timing at all, and (ii) UPPAAL-style online
black-box testing, which detects timing violations but cannot attribute them
to delay segments.  This benchmark runs all three on the same scheme-3
implementation and compares the diagnostic information each yields.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.baselines.blackbox_online import BlackBoxOnlineTester
from repro.baselines.functional_conformance import FunctionalConformanceChecker
from repro.codegen.generator import generate_code
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.gpca.interface import build_pump_interface
from repro.gpca.model import build_fig2_statechart
from repro.gpca.requirements import req1_bolus_start
from repro.gpca.scenarios import bolus_request_program
from repro.systems.gpca import GPCA_PACK

SCHEME = 3
SEED = 33
SAMPLES = 6


@pytest.fixture(scope="module")
def test_case():
    return bolus_request_program(SAMPLES).compile(9)


def test_functional_conformance_baseline(benchmark, write_artifact):
    chart = build_fig2_statechart()
    checker = FunctionalConformanceChecker(chart, generate_code(chart))
    report = benchmark(lambda: checker.run(checker.bolus_scenario(), "bolus"))
    write_artifact("baseline_functional.txt", report.summary())
    # Functional conformance passes even though the implementation violates REQ1.
    assert report.conformant


def test_blackbox_online_baseline(benchmark, test_case, write_artifact):
    tester = BlackBoxOnlineTester(partial(GPCA_PACK.build_system, SCHEME, seed=SEED))
    report = benchmark.pedantic(lambda: tester.run(test_case), rounds=1, iterations=1)
    write_artifact("baseline_blackbox.txt", report.summary())
    # The black-box tester detects the violation ...
    assert not report.passed
    # ... but yields no attribution at all.
    assert report.diagnostic_information() == []


def test_layered_r_m_testing(benchmark, test_case, write_artifact):
    def run_layered():
        r_report = execute_r_test(partial(GPCA_PACK.build_system, SCHEME, seed=SEED), test_case)
        analyzer = MTestAnalyzer(build_pump_interface(), req1_bolus_start())
        m_report = analyzer.analyze_violations(r_report)
        return r_report, m_report

    r_report, m_report = benchmark.pedantic(run_layered, rounds=1, iterations=1)
    write_artifact(
        "baseline_layered.txt",
        f"{r_report.summary()}\n{m_report.summary()}\n"
        f"delay segments per violating sample: 3 (+{len(m_report.transition_names())} transition delays)",
    )
    # Same verdict as the black-box baseline ...
    assert not r_report.passed
    # ... plus a delay-segment decomposition for every violating sample.
    assert len(m_report.segments) == r_report.violation_count
    assert all(segment.input_delay_us is not None for segment in m_report.segments)
    assert m_report.dominant_segment() is not None


def test_diagnostic_information_comparison(benchmark, test_case, write_artifact):
    """The quantitative comparison row: items of diagnostic output per tool."""
    tester = BlackBoxOnlineTester(partial(GPCA_PACK.build_system, SCHEME, seed=SEED))
    blackbox = benchmark.pedantic(lambda: tester.run(test_case), rounds=1, iterations=1)

    r_report = execute_r_test(partial(GPCA_PACK.build_system, SCHEME, seed=SEED), test_case)
    m_report = MTestAnalyzer(build_pump_interface(), req1_bolus_start()).analyze_violations(r_report)

    blackbox_items = len(blackbox.diagnostic_information())
    layered_items = sum(
        3 + len(segment.transition_delays) for segment in m_report.segments
    )
    write_artifact(
        "baseline_comparison.txt",
        "diagnostic items (how many measured quantities localise the violation)\n"
        f"  functional conformance : 0 (timing not assessed)\n"
        f"  black-box online       : {blackbox_items}\n"
        f"  layered R-M testing    : {layered_items}",
    )
    assert blackbox_items == 0
    assert layered_items >= 3 * len(m_report.segments)
