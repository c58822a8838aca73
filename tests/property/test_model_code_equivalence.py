"""Property-based equivalence between the model executor and CODE(M).

The model-based implementation's premise is that the generated code preserves
the model's functional behaviour; these properties drive both executors with
random event/advance scenarios and require identical outputs and states.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.generator import generate_code
from repro.gpca.model import build_extended_statechart, build_fig2_statechart
from repro.model.simulation import ModelExecutor

FIG2_CHART = build_fig2_statechart()
FIG2_ARTIFACTS = generate_code(FIG2_CHART)
EXTENDED_CHART = build_extended_statechart()
EXTENDED_ARTIFACTS = generate_code(EXTENDED_CHART)

FIG2_EVENTS = [event.name for event in FIG2_CHART.input_events]
EXTENDED_EVENTS = [event.name for event in EXTENDED_CHART.input_events]


def scenario_strategy(event_names):
    """A scenario is a list of steps: (advance_ticks, optional event)."""
    step = st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.one_of(st.none(), st.sampled_from(event_names)),
    )
    return st.lists(step, min_size=1, max_size=25)


def run_both(chart, artifacts, scenario):
    model = ModelExecutor(chart)
    code = artifacts.new_instance()
    for advance_ticks, event in scenario:
        if advance_ticks:
            model.advance(advance_ticks)
            code.advance_clock(advance_ticks)
            code.scan()
        if event is not None:
            model.inject(event)
            code.set_input(event)
            code.scan()
    return model, code


@given(scenario_strategy(FIG2_EVENTS))
@settings(max_examples=80, deadline=None)
def test_fig2_outputs_match_model_on_random_scenarios(scenario):
    model, code = run_both(FIG2_CHART, FIG2_ARTIFACTS, scenario)
    assert code.outputs == model.outputs
    assert code.state_name == model.current_state


@given(scenario_strategy(EXTENDED_EVENTS))
@settings(max_examples=60, deadline=None)
def test_extended_outputs_match_model_on_random_scenarios(scenario):
    model, code = run_both(EXTENDED_CHART, EXTENDED_ARTIFACTS, scenario)
    assert code.outputs == model.outputs
    assert code.state_name == model.current_state


@given(scenario_strategy(FIG2_EVENTS))
@settings(max_examples=40, deadline=None)
def test_transition_sequences_match_model(scenario):
    model, code = run_both(FIG2_CHART, FIG2_ARTIFACTS, scenario)
    model_path = [firing.transition for firing in model.firings]
    code_path = [firing.transition.name for firing in code.firing_history]
    assert model_path == code_path


@given(scenario_strategy(FIG2_EVENTS))
@settings(max_examples=40, deadline=None)
def test_motor_never_runs_outside_infusion_state(scenario):
    """A safety invariant of the pump model, checked on the generated code."""
    model, code = run_both(FIG2_CHART, FIG2_ARTIFACTS, scenario)
    if code.output("o-MotorState"):
        assert code.state_name == "Infusion"
    else:
        assert code.state_name != "Infusion"
