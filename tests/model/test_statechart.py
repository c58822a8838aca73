"""Unit tests for statechart structure and the fluent builder."""

import pytest

from repro.model.builder import StatechartBuilder
from repro.model.statechart import State, Statechart, StatechartError
from repro.model.temporal import at


def small_chart() -> Statechart:
    return (
        StatechartBuilder("small")
        .input_events("go", "stop")
        .output_variable("out", initial=0)
        .state("A", initial=True)
        .state("B")
        .transition("t_go", "A", "B", event="go", assign={"out": 1})
        .transition("t_stop", "B", "A", event="stop", assign={"out": 0})
        .build()
    )


class TestConstruction:
    def test_states_and_transitions(self):
        chart = small_chart()
        assert chart.state_names == ["A", "B"]
        assert chart.initial_state == "A"
        assert [t.name for t in chart.transitions] == ["t_go", "t_stop"]

    def test_initial_outputs(self):
        assert small_chart().initial_outputs() == {"out": 0}

    def test_duplicate_state_rejected(self):
        chart = Statechart("x")
        chart.add_state(State("A"), initial=True)
        with pytest.raises(StatechartError):
            chart.add_state(State("A"))

    def test_duplicate_transition_name_rejected(self):
        with pytest.raises(StatechartError):
            (
                StatechartBuilder("x")
                .input_event("e")
                .state("A", initial=True)
                .state("B")
                .transition("t", "A", "B", event="e")
                .transition("t", "B", "A", event="e")
                .build()
            )

    def test_two_initial_states_rejected(self):
        chart = Statechart("x")
        chart.add_state(State("A"), initial=True)
        with pytest.raises(StatechartError):
            chart.add_state(State("B"), initial=True)

    def test_missing_initial_state_rejected(self):
        chart = Statechart("x")
        chart.add_state(State("A"))
        with pytest.raises(StatechartError):
            chart.check_references()

    def test_unknown_event_reference_rejected(self):
        with pytest.raises(StatechartError):
            (
                StatechartBuilder("x")
                .state("A", initial=True)
                .state("B")
                .transition("t", "A", "B", event="missing")
                .build()
            )

    def test_unknown_variable_assignment_rejected(self):
        with pytest.raises(StatechartError):
            (
                StatechartBuilder("x")
                .input_event("e")
                .state("A", initial=True)
                .state("B")
                .transition("t", "A", "B", event="e", assign={"missing": 1})
                .build()
            )

    def test_unknown_target_state_rejected(self):
        with pytest.raises(StatechartError):
            (
                StatechartBuilder("x")
                .input_event("e")
                .state("A", initial=True)
                .transition("t", "A", "Nowhere", event="e")
                .build()
            )


class TestQueries:
    def test_transitions_from_respects_priority(self):
        chart = (
            StatechartBuilder("x")
            .input_events("e1", "e2")
            .state("A", initial=True)
            .state("B")
            .transition("second", "A", "B", event="e1", priority=5)
            .transition("first", "A", "B", event="e2", priority=1)
            .build()
        )
        assert [t.name for t in chart.transitions_from("A")] == ["first", "second"]

    def test_lookup_helpers(self):
        chart = small_chart()
        assert chart.state("A").name == "A"
        assert chart.transition("t_go").target == "B"
        assert chart.has_input_event("go")
        assert chart.has_output_variable("out")
        with pytest.raises(KeyError):
            chart.state("missing")
        with pytest.raises(KeyError):
            chart.transition("missing")


class TestBuilderFeatures:
    def test_local_variable_and_guard(self):
        chart = (
            StatechartBuilder("guarded")
            .input_event("tick")
            .output_variable("out", initial=0)
            .local_variable("count", initial=0)
            .state("A", initial=True)
            .state("B")
            .transition(
                "t",
                "A",
                "B",
                event="tick",
                guard=lambda ctx: ctx["count"] >= 0,
                assign={"out": 1},
            )
            .build()
        )
        assert chart.initial_locals() == {"count": 0}
        assert chart.transition("t").guard is not None

    def test_temporal_transition(self):
        chart = (
            StatechartBuilder("timed")
            .state("A", initial=True)
            .state("B")
            .output_variable("out")
            .transition("t", "A", "B", temporal=at(100), assign={"out": 1})
            .build()
        )
        assert chart.transition("t").temporal == at(100)

    def test_builder_priorities_default_to_declaration_order(self):
        chart = (
            StatechartBuilder("order")
            .input_events("e")
            .state("A", initial=True)
            .state("B")
            .state("C")
            .transition("first", "A", "B", event="e")
            .transition("second", "A", "C", event="e")
            .build()
        )
        assert [t.name for t in chart.transitions_from("A")] == ["first", "second"]


class TestGpcaCharts:
    def test_fig2_chart_structure(self, fig2_chart):
        assert set(fig2_chart.state_names) == {"Idle", "BolusRequested", "Infusion", "EmptyAlarm"}
        assert fig2_chart.initial_state == "Idle"
        assert len(fig2_chart.transitions) == 5
        assert {event.name for event in fig2_chart.input_events} == {
            "i-BolusReq",
            "i-EmptyAlarm",
            "i-ClearAlarm",
        }

    def test_extended_chart_superset(self, extended_chart):
        assert "OcclusionAlarm" in extended_chart.state_names
        assert "DoorOpenPause" in extended_chart.state_names
        assert extended_chart.initial_state == "PowerOnTest"
        assert len(extended_chart.transitions) >= 12
