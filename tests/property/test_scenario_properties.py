"""Property-based tests of scenario-program compilation invariants.

Whatever point of the scenario space the sampler lands on, and whatever seed
a program is compiled with, the resulting schedule must be a well-formed
R-test case: non-negative monotone timestamps, the declared stimulus volume,
and measured stimuli never closer than the requirement's minimum separation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpca.scenarios import gpca_scenario_space
from repro.scenarios.generator import ScenarioSampler

SPACE = gpca_scenario_space()

seeds = st.integers(min_value=0, max_value=2**31 - 1)
indices = st.integers(min_value=0, max_value=20)


def nth_program(sampler_seed, index):
    sampler = ScenarioSampler(SPACE, seed=sampler_seed)
    for _ in range(index):
        sampler.sample()
    return sampler.sample()


@settings(max_examples=40, deadline=None)
@given(seeds, indices, seeds)
def test_compiled_schedules_are_monotone_and_non_negative(sampler_seed, index, compile_seed):
    case = nth_program(sampler_seed, index).compile(compile_seed)
    times = case.stimulus_times()
    assert all(t >= 0 for t in times)
    assert times == sorted(times)


@settings(max_examples=40, deadline=None)
@given(seeds, indices, seeds)
def test_measured_stimuli_respect_minimum_separation(sampler_seed, index, compile_seed):
    program = nth_program(sampler_seed, index)
    case = program.compile(compile_seed)
    variable = program.requirement.stimulus.variable
    measured = [s.at_us for s in case.stimuli if s.variable == variable]
    minimum = program.requirement.min_stimulus_separation_us
    assert len(measured) == program.samples * program.stimulus.burst
    assert all(b - a >= minimum for a, b in zip(measured, measured[1:]))


@settings(max_examples=40, deadline=None)
@given(seeds, indices, seeds)
def test_compilation_is_a_pure_function_of_program_and_seed(sampler_seed, index, compile_seed):
    program = nth_program(sampler_seed, index)
    assert program.compile(compile_seed) == program.compile(compile_seed)
    # And the program itself is a pure function of (space, seed, index).
    assert nth_program(sampler_seed, index) == program


@settings(max_examples=40, deadline=None)
@given(seeds, indices)
def test_stimulus_volume_matches_program_shape(sampler_seed, index):
    program = nth_program(sampler_seed, index)
    case = program.compile()
    assert case.sample_count == program.samples * program.stimuli_per_cycle


@settings(max_examples=40, deadline=None)
@given(seeds, indices, seeds)
def test_round_trip_through_dict_preserves_compilation(sampler_seed, index, compile_seed):
    from repro.scenarios.dsl import ScenarioProgram

    program = nth_program(sampler_seed, index)
    restored = ScenarioProgram.from_dict(program.to_dict())
    assert restored.compile(compile_seed) == program.compile(compile_seed)
