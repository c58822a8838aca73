"""Unit tests for the model-mutant generator and mutant application."""

from __future__ import annotations

import pickle

import pytest

from repro.campaign.cache import chart_fingerprint
from repro.faults.mutants import MutantError, MutantSpec, generate_mutants
from repro.gpca.model import build_extended_statechart, build_fig2_statechart
from repro.model.builder import StatechartBuilder
from repro.model.temporal import at


def guarded_chart():
    """A minimal chart with a guarded transition (the GPCA charts have none)."""
    return (
        StatechartBuilder("guarded")
        .input_events("i-Go")
        .output_variable("o-Out", initial=0)
        .local_variable("armed", initial=1)
        .state("A", initial=True)
        .state("B")
        .state("C")
        .transition(
            "t_go", "A", "B", event="i-Go",
            guard=lambda context: context["armed"] == 1,
            assign={"o-Out": 1},
        )
        .transition("t_back", "B", "A", temporal=at(10), assign={"o-Out": 0})
        .build()
    )


class TestGeneration:
    def test_fig2_mutant_set_is_deterministic(self):
        first = generate_mutants(build_fig2_statechart())
        second = generate_mutants(build_fig2_statechart())
        assert first == second
        assert len(first) == 12

    def test_before_bound_mutants_are_excluded_as_known_equivalent(self):
        mutants = generate_mutants(build_fig2_statechart())
        assert not any(
            m.operator == "timing" and m.transition == "t_start_infusion" for m in mutants
        )
        included = generate_mutants(build_fig2_statechart(), include_equivalent=True)
        assert any(
            m.operator == "timing" and m.transition == "t_start_infusion" for m in included
        )
        assert len(included) > len(mutants)

    def test_structural_dedup_discards_identity_candidates(self):
        # A timing scale of 1.0 reproduces the original bound; the candidate's
        # fingerprint equals the original chart's and must be discarded.
        mutants = generate_mutants(
            build_fig2_statechart(), operators=("timing",), timing_scales=(1.0,)
        )
        assert mutants == ()

    def test_guard_negation_generated_only_for_guarded_transitions(self):
        assert not any(
            m.operator == "guard-negate" for m in generate_mutants(build_fig2_statechart())
        )
        guarded = generate_mutants(guarded_chart(), operators=("guard-negate",))
        assert [m.transition for m in guarded] == ["t_go"]

    def test_extended_chart_yields_a_larger_set(self):
        first = generate_mutants(build_extended_statechart())
        second = generate_mutants(build_extended_statechart())
        assert first == second
        assert len(first) == 34

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation operator"):
            generate_mutants(build_fig2_statechart(), operators=("typo",))

    def test_specs_are_picklable(self):
        mutants = generate_mutants(build_fig2_statechart())
        assert pickle.loads(pickle.dumps(mutants)) == mutants

    def test_round_trips_through_dict(self):
        for mutant in generate_mutants(build_fig2_statechart()):
            assert MutantSpec.from_dict(mutant.to_dict()) == mutant


class TestApplication:
    def test_apply_leaves_the_original_chart_untouched(self):
        chart = build_fig2_statechart()
        fingerprint = chart_fingerprint(chart)
        for mutant in generate_mutants(chart):
            mutated = mutant.apply(chart)
            assert chart_fingerprint(mutated) != fingerprint
            assert chart_fingerprint(chart) == fingerprint

    def test_timing_mutation_changes_the_bound(self):
        chart = build_fig2_statechart()
        spec = MutantSpec(
            operator="timing", transition="t_bolus_done",
            mutant_id="timing:t_bolus_done:2000", ticks=2000,
        )
        assert spec.apply(chart).transition("t_bolus_done").temporal.ticks == 2000

    def test_retarget_changes_the_target_state(self):
        chart = build_fig2_statechart()
        spec = MutantSpec(
            operator="retarget", transition="t_bolus_req",
            mutant_id="retarget:t_bolus_req:Infusion", target="Infusion",
        )
        assert spec.apply(chart).transition("t_bolus_req").target == "Infusion"

    def test_action_drop_removes_exactly_one_assignment(self):
        chart = build_fig2_statechart()
        spec = MutantSpec(
            operator="action-drop", transition="t_empty_alarm",
            mutant_id="drop:t_empty_alarm:0:o-MotorState", action_index=0,
        )
        original = chart.transition("t_empty_alarm").actions
        mutated = spec.apply(chart).transition("t_empty_alarm").actions
        assert len(mutated) == len(original) - 1
        assert mutated == original[1:]

    def test_guard_negation_inverts_the_guard(self):
        chart = guarded_chart()
        spec = MutantSpec(
            operator="guard-negate", transition="t_go", mutant_id="negate:t_go"
        )
        mutated = spec.apply(chart).transition("t_go")
        assert mutated.guard({"armed": 1}) is False
        assert mutated.guard({"armed": 0}) is True

    def test_apply_rejects_mismatched_specs(self):
        chart = build_fig2_statechart()
        with pytest.raises(MutantError):
            MutantSpec(
                operator="timing", transition="t_bolus_req",
                mutant_id="bad", ticks=5,
            ).apply(chart)  # event-triggered transition has no temporal bound
        with pytest.raises(MutantError):
            MutantSpec(
                operator="action-drop", transition="t_bolus_req",
                mutant_id="bad", action_index=0,
            ).apply(chart)  # t_bolus_req has no actions
        with pytest.raises(MutantError):
            MutantSpec(
                operator="retarget", transition="missing",
                mutant_id="bad", target="Idle",
            ).apply(chart)

    def test_mutated_charts_still_generate_code(self):
        from repro.codegen.generator import generate_code

        chart = build_fig2_statechart()
        # A mutated model must stay a valid code-generation input: the kill
        # matrix regenerates CODE(M) from every mutant inside the workers.
        mutants = generate_mutants(chart)
        spot_checks = (mutants[0], mutants[len(mutants) // 2], mutants[-1])
        for mutant in spot_checks:
            artifacts = generate_code(mutant.apply(chart))
            assert artifacts.code_model.transition_names

    def test_before_timing_mutant_is_behaviourally_equivalent_in_code(self):
        """Why `before` bounds are excluded: generated code fires eagerly."""
        from repro.codegen.generator import generate_code

        chart = build_fig2_statechart()
        ticks = chart.transition("t_start_infusion").temporal.ticks
        spec = MutantSpec(
            operator="timing", transition="t_start_infusion",
            mutant_id=f"timing:t_start_infusion:{ticks * 2}", ticks=ticks * 2,
        )
        original = generate_code(chart).new_instance()
        mutated = generate_code(spec.apply(chart)).new_instance()
        for runtime in (original, mutated):
            runtime.set_input("i-BolusReq", True)
            runtime.scan()
        assert original.state_name == mutated.state_name == "Infusion"
        assert original.outputs == mutated.outputs

    def test_rejects_unknown_operator_in_spec(self):
        with pytest.raises(ValueError):
            MutantSpec(operator="swap", transition="t", mutant_id="bad")
