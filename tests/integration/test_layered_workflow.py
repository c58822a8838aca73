"""End-to-end tests of the layered R-then-M workflow on the case study."""

from functools import partial

import pytest

from repro.analysis import SchemeResult, TableOne, fig3_views, model_timing_view
from repro.core import MTestAnalyzer, TransitionCoverage, render_layered_summary
from repro.core.r_testing import execute_r_test
from repro.gpca import (
    TRANS_BOLUS_REQUEST,
    TRANS_START_INFUSION,
    bolus_request_program,
    build_fig2_statechart,
    build_pump_interface,
    req1_bolus_start,
)
from repro.systems import GPCA_PACK, generic_scheme_name


@pytest.fixture(scope="module")
def scheme3_run():
    """One scheme-3 R-test execution shared by the workflow tests (expensive)."""
    test_case = bolus_request_program(5).compile(9)
    report = execute_r_test(partial(GPCA_PACK.build_system, 3, seed=99), test_case)
    return test_case, report


@pytest.fixture(scope="module")
def scheme3_m_report(scheme3_run):
    _, r_report = scheme3_run
    analyzer = MTestAnalyzer(build_pump_interface(), req1_bolus_start())
    return analyzer.analyze_violations(r_report)


class TestLayeredWorkflow:
    def test_r_testing_detects_violation_without_io_probes(self, scheme3_run):
        _, report = scheme3_run
        assert not report.passed

    def test_m_testing_segments_only_violating_samples(self, scheme3_run, scheme3_m_report):
        _, r_report = scheme3_run
        assert scheme3_m_report.analyzed_sample_indices == [
            sample.index for sample in r_report.violating_samples
        ]

    def test_segments_decompose_end_to_end_latency(self, scheme3_run, scheme3_m_report):
        _, r_report = scheme3_run
        latency_by_index = {sample.index: sample.latency_us for sample in r_report.samples}
        for segment in scheme3_m_report.segments:
            if not segment.complete:
                continue
            assert segment.segments_consistent()
            assert segment.end_to_end_us == latency_by_index[segment.sample_index]

    def test_transition_delays_reference_model_transitions(self, scheme3_m_report):
        names = set(scheme3_m_report.transition_names())
        assert TRANS_BOLUS_REQUEST in names
        assert TRANS_START_INFUSION in names

    def test_layered_summary_gives_diagnosis(self, scheme3_run, scheme3_m_report):
        _, r_report = scheme3_run
        text = render_layered_summary(r_report, scheme3_m_report)
        assert "Diagnosis" in text

    def test_transition_coverage_of_the_run(self, scheme3_run, fig2_artifacts):
        _, r_report = scheme3_run
        coverage = TransitionCoverage.for_code_model(fig2_artifacts.code_model)
        coverage.add_trace(r_report.trace)
        # The bolus scenario exercises request, start and completion transitions.
        assert {TRANS_BOLUS_REQUEST, TRANS_START_INFUSION, "t_bolus_done"} <= coverage.covered
        assert coverage.ratio >= 3 / 5


class TestTableOneAssembly:
    def test_table_contains_all_schemes_and_samples(self, scheme3_run, scheme3_m_report):
        _, r_report = scheme3_run
        table = TableOne()
        table.add(SchemeResult(3, generic_scheme_name(3), r_report, scheme3_m_report))
        rows = table.rows()
        assert len(rows) == 5
        assert any("*" in row["scheme3_r"] or row["scheme3_r"] == "MAX" for row in rows)
        rendered = table.render()
        assert "TABLE I" in rendered
        assert "Scheme 3" in rendered

    def test_summary_rows(self, scheme3_run, scheme3_m_report):
        _, r_report = scheme3_run
        result = SchemeResult(3, generic_scheme_name(3), r_report, scheme3_m_report)
        summary = result.summary_row()
        assert summary["violations"] > 0
        assert summary["dominant_segment"] in {"input", "code", "output"}


class TestFig3Views:
    def test_model_view_matches_verified_bound(self, req1):
        view = model_timing_view(build_fig2_statechart(), req1)
        assert view.within_deadline
        assert view.response_latency_ticks == 0  # eager model semantics
        assert view.deadline_ticks == 100

    def test_fig3_views_for_violations(self, scheme3_m_report, req1):
        views = fig3_views(build_fig2_statechart(), req1, scheme3_m_report)
        assert len(views) == len(scheme3_m_report.segments)
        rendered = views[0].render()
        assert "(a) model" in rendered
        assert "(d) transitions" in rendered
