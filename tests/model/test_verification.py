"""Unit tests for bounded-response verification (the Design Verifier substitute)."""


from repro.model.builder import StatechartBuilder
from repro.model.temporal import at, before
from repro.model.verification import (
    BoundedResponseChecker,
    BoundedResponseRequirement,
    reachable_states,
)


def chart_with_bound(bound_ticks: int):
    """Trigger event leads to a before(bound) transition that emits the response."""
    return (
        StatechartBuilder("bounded")
        .input_event("trigger")
        .output_variable("out", initial=0)
        .state("Idle", initial=True)
        .state("Waiting")
        .state("Done")
        .transition("t_accept", "Idle", "Waiting", event="trigger")
        .transition("t_respond", "Waiting", "Done", temporal=before(bound_ticks), assign={"out": 1})
        .transition("t_reset", "Done", "Idle", temporal=at(10), assign={"out": 0})
        .build()
    )


def requirement(deadline: int) -> BoundedResponseRequirement:
    return BoundedResponseRequirement(
        requirement_id="R",
        trigger_event="trigger",
        response_variable="out",
        response_value=1,
        deadline_ticks=deadline,
        trigger_state="Idle",
    )


class TestBoundedResponse:
    def test_passes_when_bound_within_deadline(self):
        checker = BoundedResponseChecker(chart_with_bound(50))
        result = checker.check(requirement(100))
        assert result.passed
        assert result.worst_case_ticks == 50

    def test_worst_case_equals_deadline_still_passes(self):
        checker = BoundedResponseChecker(chart_with_bound(100))
        result = checker.check(requirement(100))
        assert result.passed
        assert result.worst_case_ticks == 100

    def test_fails_when_bound_exceeds_deadline(self):
        checker = BoundedResponseChecker(chart_with_bound(150))
        result = checker.check(requirement(100))
        assert not result.passed
        assert result.witness

    def test_fails_when_response_never_produced(self):
        chart = (
            StatechartBuilder("no_response")
            .input_event("trigger")
            .output_variable("out", initial=0)
            .state("Idle", initial=True)
            .state("Stuck")
            .transition("t_accept", "Idle", "Stuck", event="trigger")
            .build()
        )
        result = BoundedResponseChecker(chart).check(requirement(100))
        assert not result.passed
        assert result.worst_case_ticks is None

    def test_immediate_response_on_trigger_transition(self):
        chart = (
            StatechartBuilder("immediate")
            .input_event("trigger")
            .output_variable("out", initial=0)
            .state("Idle", initial=True)
            .state("Done")
            .transition("t", "Idle", "Done", event="trigger", assign={"out": 1})
            .build()
        )
        result = BoundedResponseChecker(chart).check(requirement(10))
        assert result.passed
        assert result.worst_case_ticks == 0

    def test_summary_format(self):
        result = BoundedResponseChecker(chart_with_bound(20)).check(requirement(100))
        assert "PASS" in result.summary()
        assert "R" in result.summary()


class TestGpcaVerification:
    def test_req1_verifies_on_fig2_model(self, fig2_chart, req1):
        checker = BoundedResponseChecker(fig2_chart)
        result = checker.check(req1.to_model_requirement())
        assert result.passed
        assert result.worst_case_ticks == 100  # the before(100) bound is tight

    def test_req1_verifies_on_extended_model(self, extended_chart, req1):
        checker = BoundedResponseChecker(extended_chart)
        result = checker.check(req1.to_model_requirement())
        assert result.passed

    def test_all_gpca_requirements_verify(self, fig2_chart):
        from repro.gpca.requirements import gpca_requirements

        checker = BoundedResponseChecker(fig2_chart)
        for timing_requirement in gpca_requirements().with_model_counterpart():
            result = checker.check(timing_requirement.to_model_requirement())
            assert result.passed, timing_requirement.requirement_id

    def test_tightened_deadline_fails(self, fig2_chart, req1):
        from repro.gpca.requirements import req1_bolus_start

        checker = BoundedResponseChecker(fig2_chart)
        tight = req1_bolus_start(deadline_ms=50).to_model_requirement()
        result = checker.check(tight)
        assert not result.passed


class TestReachability:
    def test_all_fig2_states_reachable(self, fig2_chart):
        assert set(reachable_states(fig2_chart)) == set(fig2_chart.state_names)

    def test_unreachable_state_excluded(self):
        chart = (
            StatechartBuilder("island")
            .input_event("e")
            .state("A", initial=True)
            .state("B")
            .state("Island")
            .transition("t", "A", "B", event="e")
            .build()
        )
        assert "Island" not in reachable_states(chart)

    def test_requirement_with_no_trigger_state_checks_all_accepting_states(self, extended_chart):
        checker = BoundedResponseChecker(extended_chart)
        result = checker.check(
            BoundedResponseRequirement(
                requirement_id="clear-anywhere",
                trigger_event="i-ClearAlarm",
                response_variable="o-BuzzerState",
                response_value=0,
                deadline_ticks=10,
            )
        )
        assert set(result.trigger_states) == {"EmptyAlarm", "OcclusionAlarm"}
        assert result.passed
