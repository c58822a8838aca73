"""Unit tests for the zero-time model executor."""

import pytest

from repro.model.builder import StatechartBuilder
from repro.model.simulation import ModelExecutionError, ModelExecutor
from repro.model.temporal import after, before


class TestFig2Semantics:
    def test_bolus_request_starts_motor_instantaneously(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.advance(10)
        writes = executor.inject("i-BolusReq")
        # The eager before(100) resolution fires t_start_infusion in the same
        # macro-step, so the output appears at the same tick (zero time).
        assert [(w.variable, w.value) for w in writes] == [("o-MotorState", 1)]
        assert executor.current_state == "Infusion"
        assert executor.outputs["o-MotorState"] == 1

    def test_bolus_completes_after_4000_ticks(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.inject("i-BolusReq")
        writes = executor.advance(4000)
        assert ("o-MotorState", 0) in [(w.variable, w.value) for w in writes]
        assert executor.current_state == "Idle"

    def test_bolus_not_complete_before_4000_ticks(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.inject("i-BolusReq")
        executor.advance(3999)
        assert executor.current_state == "Infusion"

    def test_empty_alarm_stops_motor_and_buzzes(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.inject("i-BolusReq")
        executor.advance(500)
        writes = executor.inject("i-EmptyAlarm")
        values = {(w.variable, w.value) for w in writes}
        assert ("o-MotorState", 0) in values
        assert ("o-BuzzerState", 1) in values
        assert executor.current_state == "EmptyAlarm"

    def test_clear_alarm_returns_to_idle(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.inject("i-BolusReq")
        executor.advance(100)
        executor.inject("i-EmptyAlarm")
        executor.inject("i-ClearAlarm")
        assert executor.current_state == "Idle"
        assert executor.outputs["o-BuzzerState"] == 0

    def test_ignored_event_in_wrong_state(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        writes = executor.inject("i-ClearAlarm")
        assert writes == []
        assert executor.current_state == "Idle"

    def test_unknown_event_rejected(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        with pytest.raises(ModelExecutionError):
            executor.inject("i-DoesNotExist")


class TestScenarios:
    def test_bolus_starts_and_stops_the_motor(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.advance(10)
        executor.inject("i-BolusReq")
        executor.advance(4990)
        motor = [(c.value, c.tick) for c in executor.output_changes if c.variable == "o-MotorState"]
        assert motor == [(1, 10), (0, 4010)]
        assert executor.current_state == "Idle"

    def test_second_request_during_infusion_is_ignored(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.advance(10)
        executor.inject("i-BolusReq")
        executor.advance(290)
        executor.inject("i-BolusReq")
        executor.advance(4700)
        starts = [
            change for change in executor.output_changes
            if change.variable == "o-MotorState" and change.value == 1
        ]
        assert len(starts) == 1

    def test_negative_advance_rejected(self, fig2_chart):
        with pytest.raises(ModelExecutionError):
            ModelExecutor(fig2_chart).advance(-1)

    def test_firings_record_path(self, fig2_chart):
        executor = ModelExecutor(fig2_chart)
        executor.inject("i-BolusReq")
        executor.advance(10)
        assert [firing.transition for firing in executor.firings[:2]] == [
            "t_bolus_req",
            "t_start_infusion",
        ]


class TestTemporalOperators:
    def test_after_fires_at_first_opportunity_past_bound(self):
        chart = (
            StatechartBuilder("after_chart")
            .output_variable("out", initial=0)
            .state("A", initial=True)
            .state("B")
            .transition("t", "A", "B", temporal=after(50), assign={"out": 1})
            .build()
        )
        executor = ModelExecutor(chart)
        executor.advance(49)
        assert executor.current_state == "A"
        executor.advance(1)
        assert executor.current_state == "B"

    def test_guard_blocks_transition(self):
        chart = (
            StatechartBuilder("guarded")
            .input_event("e")
            .output_variable("out", initial=0)
            .local_variable("enabled", initial=0)
            .state("A", initial=True)
            .state("B")
            .transition(
                "t", "A", "B", event="e", guard=lambda ctx: ctx["enabled"] == 1, assign={"out": 1}
            )
            .build()
        )
        executor = ModelExecutor(chart)
        executor.inject("e")
        assert executor.current_state == "A"

    def test_local_assignment_enables_later_transition(self):
        chart = (
            StatechartBuilder("local")
            .input_events("arm", "fire")
            .output_variable("out", initial=0)
            .local_variable("armed", initial=0)
            .state("A", initial=True)
            .state("B")
            .transition("t_arm", "A", "A", event="arm", assign={"armed": 1})
            .transition(
                "t_fire", "A", "B", event="fire",
                guard=lambda ctx: ctx["armed"] == 1, assign={"out": 1},
            )
            .build()
        )
        executor = ModelExecutor(chart)
        executor.inject("fire")
        assert executor.current_state == "A"
        executor.inject("arm")
        executor.inject("fire")
        assert executor.current_state == "B"
        assert executor.outputs["out"] == 1

    def test_zero_time_livelock_detected(self):
        chart = (
            StatechartBuilder("livelock")
            .state("A", initial=True)
            .state("B")
            .output_variable("out")
            .transition("t_ab", "A", "B", temporal=before(10))
            .transition("t_ba", "B", "A", temporal=before(10))
            .build()
        )
        executor = ModelExecutor(chart)
        with pytest.raises(ModelExecutionError):
            executor.advance(1)


class TestExtendedChart:
    def test_power_on_test_completes(self, extended_chart):
        executor = ModelExecutor(extended_chart)
        executor.advance(500)
        assert executor.current_state == "Idle"

    def test_occlusion_during_infusion_raises_alarm(self, extended_chart):
        executor = ModelExecutor(extended_chart)
        executor.advance(500)
        executor.inject("i-BolusReq")
        executor.advance(100)
        executor.inject("i-Occlusion")
        assert executor.current_state == "OcclusionAlarm"
        assert executor.outputs["o-MotorState"] == 0
        assert executor.outputs["o-AlarmLedState"] == 1

    def test_door_open_pauses_infusion(self, extended_chart):
        executor = ModelExecutor(extended_chart)
        executor.advance(500)
        executor.inject("i-BolusReq")
        executor.inject("i-DoorOpen")
        assert executor.current_state == "DoorOpenPause"
        executor.inject("i-DoorClose")
        assert executor.current_state == "Idle"
