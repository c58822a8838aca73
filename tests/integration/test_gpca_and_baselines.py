"""Tests of the GPCA scenario catalogue and the related-work baselines."""

from functools import partial

from repro.baselines.blackbox_online import BlackBoxOnlineTester
from repro.baselines.functional_conformance import FunctionalConformanceChecker, FunctionalStep
from repro.codegen.generator import generate_code
from repro.core.r_testing import execute_r_test
from repro.gpca.model import build_extended_statechart, build_fig2_statechart
from repro.gpca.scenarios import (
    alarm_clear_program,
    bolus_request_program,
    empty_reservoir_alarm_program,
    empty_reservoir_stop_program,
)
from repro.systems.gpca import GPCA_PACK


class TestGpcaScenarios:
    def test_bolus_scenario_spacing_respects_bolus_duration(self):
        case = bolus_request_program(6).compile(1)
        times = case.stimulus_times()
        assert all(b - a >= case.requirement.min_stimulus_separation_us for a, b in zip(times, times[1:]))

    def test_empty_reservoir_alarm_scenario_on_scheme2(self):
        case = empty_reservoir_alarm_program(3).compile()
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=5), case)
        assert len(report.samples) == 3
        assert report.passed

    def test_empty_reservoir_stop_scenario_on_scheme2(self):
        case = empty_reservoir_stop_program(3).compile()
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=5), case)
        assert len(report.samples) == 3
        assert report.passed

    def test_alarm_clear_scenario_on_scheme2(self):
        case = alarm_clear_program(3).compile()
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=5), case)
        assert len(report.samples) == 3
        assert report.passed

    def test_extended_model_runs_on_scheme2(self):
        # The pack starts the schedule after the extended chart's 500 ms
        # power-on self test: at 800 ms instead of 150 ms.
        case = GPCA_PACK.schedule(bolus_request_program(3), 2, "extended")
        assert case.stimulus_times()[0] == 800_000
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=6, model="extended"), case)
        assert len(report.samples) == 3
        assert report.passed

    def test_request_during_power_on_test_is_ignored(self):
        """A request during the extended model's self test gets no bolus (MAX),
        exactly as the model specifies."""
        case = bolus_request_program(1).compile(2)
        assert case.stimulus_times() == [150_000]
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=6, model="extended"), case)
        assert report.samples[0].timed_out


class TestBlackBoxBaseline:
    def test_reaches_same_verdict_as_r_testing(self):
        case = bolus_request_program(4).compile(3)
        r_report = execute_r_test(partial(GPCA_PACK.build_system, 3, seed=44), case)
        bb_report = BlackBoxOnlineTester(partial(GPCA_PACK.build_system, 3, seed=44)).run(case)
        assert bb_report.passed == r_report.passed
        assert bb_report.violation_count == r_report.violation_count

    def test_provides_no_diagnostic_information(self):
        case = bolus_request_program(2).compile(3)
        report = BlackBoxOnlineTester(partial(GPCA_PACK.build_system, 3, seed=44)).run(case)
        assert report.diagnostic_information() == []
        assert "0 delay segments" in report.summary()

    def test_passing_system_passes(self):
        case = bolus_request_program(3).compile(3)
        report = BlackBoxOnlineTester(partial(GPCA_PACK.build_system, 2, seed=7)).run(case)
        assert report.passed
        assert all(verdict.passed for verdict in report.verdicts)


class TestFunctionalConformanceBaseline:
    def test_generated_code_is_functionally_conformant(self):
        chart = build_fig2_statechart()
        checker = FunctionalConformanceChecker(chart, generate_code(chart))
        report = checker.run(checker.bolus_scenario(), "bolus")
        assert report.conformant
        alarm = [
            FunctionalStep(advance_ticks=10, events=("i-BolusReq",)),
            FunctionalStep(advance_ticks=500, events=("i-EmptyAlarm",)),
            FunctionalStep(advance_ticks=1000, events=("i-ClearAlarm",)),
        ]
        report = checker.run(alarm, "alarm")
        assert report.conformant

    def test_extended_chart_conformance(self):
        chart = build_extended_statechart()
        checker = FunctionalConformanceChecker(chart, generate_code(chart))
        steps = [
            FunctionalStep(advance_ticks=500),
            FunctionalStep(advance_ticks=10, events=("i-BolusReq",)),
            FunctionalStep(advance_ticks=100, events=("i-Occlusion",)),
            FunctionalStep(advance_ticks=50, events=("i-ClearAlarm",)),
        ]
        assert checker.run(steps, "occlusion").conformant

    def test_conformance_says_nothing_about_timing(self):
        """The key gap: a timing-violating scheme still passes functional checks."""
        chart = build_fig2_statechart()
        checker = FunctionalConformanceChecker(chart, generate_code(chart))
        functional = checker.run(checker.bolus_scenario(), "bolus")
        assert functional.conformant
        case = bolus_request_program(3).compile(3)
        timing = execute_r_test(partial(GPCA_PACK.build_system, 3, seed=44), case)
        assert not timing.passed
        assert "timing not assessed" in functional.summary()

    def test_divergence_detected_for_mismatched_artifacts(self):
        """Pairing the Fig. 2 model with code generated from a different chart fails."""
        fig2 = build_fig2_statechart()
        other = build_extended_statechart()
        checker = FunctionalConformanceChecker(fig2, generate_code(other))
        report = checker.run(checker.bolus_scenario(), "mismatch")
        assert not report.conformant
