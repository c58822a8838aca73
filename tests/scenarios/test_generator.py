"""Tests of the scenario space and the seeded sampler."""

import pytest

from repro.gpca.requirements import req1_bolus_start
from repro.gpca.scenarios import gpca_scenario_space
from repro.platform.kernel.time import ms
from repro.scenarios.generator import ScenarioSampler, ScenarioSpace


def measured_times(case):
    """Timestamps of the measured stimuli of a compiled case."""
    variable = case.requirement.stimulus.variable
    return [s.at_us for s in case.stimuli if s.variable == variable]


class TestScenarioSpace:
    def test_gpca_space_covers_all_requirements(self):
        space = gpca_scenario_space()
        assert sorted(r.requirement_id for r in space.requirements) == [
            "REQ1",
            "REQ2",
            "REQ3",
            "REQ4",
        ]

    def test_rejects_empty_requirements_and_inverted_ranges(self):
        with pytest.raises(ValueError, match="at least one requirement"):
            ScenarioSpace(requirements=(), setup_variables=(), teardown_variables=())
        with pytest.raises(ValueError, match="inverted"):
            ScenarioSpace(
                requirements=(req1_bolus_start(),),
                setup_variables=(),
                teardown_variables=(),
                samples=(5, 2),
            )


class TestScenarioSampler:
    def test_same_seed_same_programs(self):
        space = gpca_scenario_space()
        a = ScenarioSampler(space, seed=7)
        b = ScenarioSampler(space, seed=7)
        first = [a.sample() for _ in range(10)]
        second = [b.sample() for _ in range(10)]
        assert first == second

    def test_different_seeds_diverge(self):
        space = gpca_scenario_space()
        a = [ScenarioSampler(space, seed=1).sample() for _ in range(5)]
        b = [ScenarioSampler(space, seed=2).sample() for _ in range(5)]
        assert a != b

    def test_program_names_are_unique_and_indexed(self):
        sampler = ScenarioSampler(gpca_scenario_space(), seed=0)
        names = [sampler.sample().name for _ in range(20)]
        assert len(set(names)) == 20
        assert all(f"-{index:03d}" in name for index, name in enumerate(names))

    def test_sampled_programs_compile_and_respect_separation(self):
        sampler = ScenarioSampler(gpca_scenario_space(), seed=3)
        for compile_seed in range(30):
            program = sampler.sample()
            case = program.compile(compile_seed)
            times = case.stimulus_times()
            assert times == sorted(times)
            minimum = program.requirement.min_stimulus_separation_us
            measured = measured_times(case)
            assert all(b - a >= minimum for a, b in zip(measured, measured[1:]))

    def test_setup_steps_never_use_the_measured_variable(self):
        sampler = ScenarioSampler(gpca_scenario_space(), seed=5)
        for _ in range(30):
            program = sampler.sample()
            step_variables = {s.variable for s in (*program.setup, *program.teardown)}
            assert program.requirement.stimulus.variable not in step_variables

    def test_mutation_is_valid_and_renamed(self):
        sampler = ScenarioSampler(gpca_scenario_space(), seed=0)
        parent = sampler.sample()
        mutant = sampler.mutate(parent)
        assert mutant.name != parent.name
        assert mutant.name.startswith(parent.name)
        assert mutant.requirement == parent.requirement
        mutant.compile(seed=9)  # must stay compilable

    def test_chained_mutations_never_interleave_cycles(self):
        """Archive programs are re-mutated; cycles must stay disjoint and
        names bounded no matter how long the mutation chain gets."""
        for seed in range(3):
            sampler = ScenarioSampler(gpca_scenario_space(), seed=seed)
            program = sampler.sample()
            for _ in range(40):
                program = sampler.mutate(program)
                offsets = [
                    step.offset_us for step in (*program.setup, *program.teardown)
                ]
                last_event = max(
                    [program.stimulus.offset_us + program.stimulus.span_us, *offsets]
                )
                assert last_event < program.spacing.min_us
                assert program.name.count("~") <= 1

    def test_rich_sampling_floors_step_counts(self):
        sampler = ScenarioSampler(gpca_scenario_space(), seed=2)
        for _ in range(10):
            program = sampler.sample(min_setup_steps=1, min_teardown_steps=1)
            assert program.setup and program.teardown

    def test_mutation_stream_is_deterministic(self):
        space = gpca_scenario_space()
        a = ScenarioSampler(space, seed=4)
        b = ScenarioSampler(space, seed=4)
        assert a.mutate(a.sample()) == b.mutate(b.sample())

    def test_req1_spacing_floor_respects_bolus_duration(self):
        """REQ1 programs can never schedule requests closer than 4200 ms."""
        sampler = ScenarioSampler(gpca_scenario_space(), seed=11)
        req1_programs = []
        while len(req1_programs) < 5:
            program = sampler.sample()
            if program.requirement.requirement_id == "REQ1":
                req1_programs.append(program)
        for program in req1_programs:
            assert program.spacing.min_us - program.stimulus.span_us >= ms(4200)
