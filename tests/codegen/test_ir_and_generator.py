"""Unit tests for lowering, the generator facade and the C emitter."""

import pytest

from repro.codegen.c_emitter import emit_c_source
from repro.codegen.generator import generate_code
from repro.codegen.ir import lower_statechart
from repro.model.builder import StatechartBuilder
from repro.model.statechart import StatechartError
from repro.model.temporal import at, before


class TestLowering:
    def test_states_and_initial_index(self, fig2_chart):
        model = lower_statechart(fig2_chart)
        assert model.state_names == ["Idle", "BolusRequested", "Infusion", "EmptyAlarm"]
        assert model.initial_state_index == 0

    def test_inputs_and_outputs_preserved(self, fig2_chart):
        model = lower_statechart(fig2_chart)
        assert model.input_names == ["i-BolusReq", "i-EmptyAlarm", "i-ClearAlarm"]
        assert model.output_initials == {"o-MotorState": 0, "o-BuzzerState": 0}

    def test_transition_rows_keep_model_names(self, fig2_chart):
        model = lower_statechart(fig2_chart)
        assert model.transition_names == [
            "t_bolus_req",
            "t_start_infusion",
            "t_bolus_done",
            "t_empty_alarm",
            "t_clear_alarm",
        ]

    def test_trigger_kinds(self, fig2_chart):
        model = lower_statechart(fig2_chart)
        kinds = {row.name: row.trigger_kind for row in model.transitions}
        assert kinds["t_bolus_req"] == "event"
        assert kinds["t_start_infusion"] == "before"
        assert kinds["t_bolus_done"] == "at"

    def test_untriggered_transition_becomes_after_zero(self):
        chart = (
            StatechartBuilder("x")
            .output_variable("out")
            .local_variable("flag", initial=0)
            .state("A", initial=True)
            .state("B")
            .transition("t", "A", "B", guard=lambda ctx: ctx["flag"] == 1)
            .build()
        )
        model = lower_statechart(chart)
        row = model.transitions[0]
        assert row.trigger_kind == "after"
        assert row.trigger_param == 0

    def test_actions_classified_output_vs_local(self):
        chart = (
            StatechartBuilder("x")
            .input_event("e")
            .output_variable("out")
            .local_variable("counter", initial=0)
            .state("A", initial=True)
            .state("B")
            .transition("t", "A", "B", event="e", assign={"out": 1, "counter": 2})
            .build()
        )
        row = lower_statechart(chart).transitions[0]
        by_variable = {action.variable: action.is_output for action in row.actions}
        assert by_variable == {"out": True, "counter": False}

    def test_transitions_from_sorted_by_priority(self, fig2_chart):
        model = lower_statechart(fig2_chart)
        infusion_index = model.state_index("Infusion")
        rows = model.transitions_from(infusion_index)
        assert [row.name for row in rows] == ["t_bolus_done", "t_empty_alarm"]


class TestGeneratorFacade:
    def test_generate_produces_all_artifacts(self, fig2_chart):
        artifacts = generate_code(fig2_chart)
        assert artifacts.code_model.name == "gpca_fig2"
        assert "gpca_fig2_step" in artifacts.c_source
        assert "5 transitions" in artifacts.summary()

    def test_new_instance_is_independent(self, fig2_artifacts):
        first = fig2_artifacts.new_instance()
        second = fig2_artifacts.new_instance()
        first.set_input("i-BolusReq")
        first.scan()
        assert first.state_name == "Infusion"
        assert second.state_name == "Idle"

    def test_malformed_chart_rejected(self):
        chart = (
            StatechartBuilder("broken")
            .state("A", initial=True)
            .transition("t", "A", "A")
            .build()
        )
        with pytest.raises(StatechartError):
            generate_code(chart)

    def test_extended_chart_generates(self, extended_chart):
        artifacts = generate_code(extended_chart)
        assert len(artifacts.code_model.state_names) == 7


class TestCEmitter:
    def test_emits_state_enum(self, fig2_chart):
        source = emit_c_source(lower_statechart(fig2_chart))
        assert "GPCA_FIG2_STATE_IDLE = 0" in source.upper()
        assert "gpca_fig2_state_t" in source

    def test_emits_io_struct_with_sanitised_identifiers(self, fig2_chart):
        source = emit_c_source(lower_statechart(fig2_chart))
        assert "i_BolusReq" in source
        assert "o_MotorState" in source
        assert "i-BolusReq" not in source.split("/*")[0]

    def test_emits_step_and_init_functions(self, fig2_chart):
        source = emit_c_source(lower_statechart(fig2_chart))
        assert "void gpca_fig2_init(" in source
        assert "void gpca_fig2_step(" in source
        assert "switch (dw->current_state)" in source

    def test_transition_comments_reference_model_names(self, fig2_chart):
        source = emit_c_source(lower_statechart(fig2_chart))
        for name in ("t_bolus_req", "t_start_infusion", "t_bolus_done"):
            assert name in source

    def test_temporal_conditions_rendered(self, fig2_chart):
        source = emit_c_source(lower_statechart(fig2_chart))
        assert "state_clock_ms >= 4000" in source
        assert "before(100)" in source
