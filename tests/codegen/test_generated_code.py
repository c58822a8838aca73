"""Unit tests for the CODE(M) runtime and its equivalence with the model."""

import pytest

from repro.codegen.generated import GeneratedCodeError
from repro.model.simulation import ModelExecutor


class TestBasicExecution:
    def test_initial_configuration(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        assert code.state_name == "Idle"
        assert code.outputs == {"o-MotorState": 0, "o-BuzzerState": 0}
        assert all(value is False for value in code.inputs.values())

    def test_event_transition_consumes_input(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        code.set_input("i-BolusReq")
        row = code.enabled_transition()
        assert row.name == "t_bolus_req"
        code.fire(row)
        assert code.inputs["i-BolusReq"] is False
        assert code.state_name == "BolusRequested"

    def test_scan_runs_to_completion(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        code.set_input("i-BolusReq")
        firings = code.scan()
        assert [firing.transition.name for firing in firings] == [
            "t_bolus_req",
            "t_start_infusion",
        ]
        assert code.output("o-MotorState") == 1

    def test_scan_with_limit_takes_one_transition(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        code.set_input("i-BolusReq")
        firings = code.scan(max_transitions=1)
        assert len(firings) == 1
        assert code.state_name == "BolusRequested"

    def test_at_transition_requires_clock(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        code.set_input("i-BolusReq")
        code.scan()
        assert code.enabled_transition() is None
        code.advance_clock(3999)
        assert code.enabled_transition() is None
        code.advance_clock(1)
        assert code.enabled_transition().name == "t_bolus_done"

    def test_state_clock_resets_on_transition(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        code.advance_clock(500)
        code.set_input("i-BolusReq")
        code.scan()
        assert code.state_clock_ticks == 0

    def test_unknown_input_rejected(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        with pytest.raises(GeneratedCodeError):
            code.set_input("i-Nope")

    def test_unknown_output_rejected(self, fig2_artifacts):
        with pytest.raises(GeneratedCodeError):
            fig2_artifacts.new_instance().output("o-Nope")

    def test_fire_from_wrong_state_rejected(self, fig2_artifacts):
        code = fig2_artifacts.new_instance()
        row = [r for r in code.model.transitions if r.name == "t_bolus_done"][0]
        with pytest.raises(GeneratedCodeError):
            code.fire(row)

    def test_negative_clock_rejected(self, fig2_artifacts):
        with pytest.raises(GeneratedCodeError):
            fig2_artifacts.new_instance().advance_clock(-1)


class TestModelEquivalence:
    """The generated code must preserve the model behaviour (functionally)."""

    SCENARIOS = [
        # (name, list of (advance_ticks, [events]))
        ("bolus", [(10, ["i-BolusReq"]), (4200, [])]),
        ("bolus_then_alarm", [(10, ["i-BolusReq"]), (500, ["i-EmptyAlarm"]), (100, ["i-ClearAlarm"])]),
        ("ignored_events", [(5, ["i-ClearAlarm"]), (5, ["i-EmptyAlarm"]), (5, ["i-BolusReq"])]),
        ("back_to_back_boluses", [(10, ["i-BolusReq"]), (4500, ["i-BolusReq"]), (4500, [])]),
        (
            "alarm_clear_alarm",
            [
                (0, ["i-BolusReq"]),
                (100, ["i-EmptyAlarm"]),
                (50, ["i-ClearAlarm"]),
                (10, ["i-BolusReq"]),
                (4100, []),
            ],
        ),
    ]

    @pytest.mark.parametrize("name,steps", SCENARIOS, ids=[s[0] for s in SCENARIOS])
    def test_outputs_and_state_match_model(self, fig2_chart, fig2_artifacts, name, steps):
        model = ModelExecutor(fig2_chart)
        code = fig2_artifacts.new_instance()
        for advance_ticks, events in steps:
            if advance_ticks:
                model.advance(advance_ticks)
                code.advance_clock(advance_ticks)
                code.scan()
            for event in events:
                model.inject(event)
                code.set_input(event)
                code.scan()
            assert code.outputs == model.outputs, f"outputs diverged in {name}"
            assert code.state_name == model.current_state, f"state diverged in {name}"

    def test_transition_sequences_match(self, fig2_chart, fig2_artifacts):
        model = ModelExecutor(fig2_chart)
        code = fig2_artifacts.new_instance()
        model.inject("i-BolusReq")
        model.advance(4000)
        code.set_input("i-BolusReq")
        code.scan()
        code.advance_clock(4000)
        code.scan()
        model_path = [firing.transition for firing in model.firings]
        code_path = [firing.transition.name for firing in code.firing_history]
        assert model_path == code_path
