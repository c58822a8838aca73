"""Unit tests for state coverage (complements transition coverage)."""

import pytest

from repro.core.coverage import StateCoverage
from repro.core.four_variables import Event, EventKind, Trace


class TestStateCoverage:
    def test_covers_source_and_target_of_observed_transitions(self, fig2_artifacts):
        coverage = StateCoverage.for_code_model(fig2_artifacts.code_model)
        trace = Trace(
            [
                Event(EventKind.TRANSITION_START, "t_bolus_req", None, 10),
                Event(EventKind.TRANSITION_START, "t_start_infusion", None, 20),
            ]
        )
        coverage.add_trace(trace)
        assert coverage.covered == {"Idle", "BolusRequested", "Infusion"}
        assert coverage.uncovered == ["EmptyAlarm"]
        assert coverage.ratio == pytest.approx(3 / 4)

    def test_unknown_transitions_ignored(self, fig2_artifacts):
        coverage = StateCoverage.for_code_model(fig2_artifacts.code_model)
        trace = Trace([Event(EventKind.TRANSITION_START, "not_a_transition", None, 10)])
        coverage.add_trace(trace)
        assert coverage.covered == set()

    def test_full_coverage_summary(self, fig2_artifacts):
        coverage = StateCoverage.for_code_model(fig2_artifacts.code_model)
        trace = Trace(
            [
                Event(EventKind.TRANSITION_START, "t_bolus_req", None, 1),
                Event(EventKind.TRANSITION_START, "t_start_infusion", None, 2),
                Event(EventKind.TRANSITION_START, "t_empty_alarm", None, 3),
            ]
        )
        coverage.add_trace(trace)
        assert coverage.ratio == 1.0
        assert "uncovered: none" in coverage.summary()

    def test_coverage_of_a_real_run(self, fig2_artifacts):
        from functools import partial

        from repro.core.r_testing import execute_r_test
        from repro.gpca import bolus_request_program
        from repro.systems import GPCA_PACK

        case = bolus_request_program(2).compile(2)
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=3), case)
        coverage = StateCoverage.for_code_model(fig2_artifacts.code_model)
        coverage.add_trace(report.trace)
        # The bolus scenario never reaches the EmptyAlarm state.
        assert {"Idle", "BolusRequested", "Infusion"} <= coverage.covered
        assert "EmptyAlarm" in coverage.uncovered
