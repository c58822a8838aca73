"""Tests of the scenario DSL: compilation, determinism, legacy equivalence."""

import json
from dataclasses import replace

import pytest

from repro.gpca import (
    alarm_clear_program,
    bolus_request_program,
    empty_reservoir_alarm_program,
    empty_reservoir_stop_program,
    req1_bolus_start,
    req2_empty_reservoir_alarm,
)
from repro.gpca.scenarios import BOLUS_SPACING_US
from repro.platform.kernel.time import ms, seconds
from repro.scenarios import (
    ROLE_SETUP,
    ROLE_TEARDOWN,
    CycleSpacing,
    ScenarioProgram,
    StimulusPattern,
    StimulusStep,
)


def _cycle_schedule(samples):
    """The hand-written multi-step GPCA schedule: one 8 s cycle per sample,
    bolus request, reservoir empty, alarm cleared, reservoir refilled."""
    steps = (
        (0, "m-BolusReq"),
        (seconds(1), "m-EmptyReservoir"),
        (seconds(3), "m-ClearAlarm"),
        (seconds(4), "m-ReservoirRefill"),
    )
    return [
        (ms(150) + index * seconds(8) + offset, variable)
        for index in range(samples)
        for offset, variable in steps
    ]


class TestLegacyScenarioEquivalence:
    """The DSL programs reproduce the hand-written schedules byte for byte.

    The expected schedules are pinned as literals, so a regression in the
    DSL or in a program is caught against ground truth.
    """

    def test_bolus_request_randomized_matches_pinned_schedule(self):
        case = bolus_request_program(4).compile(seed=0)
        assert case.name == "bolus-request"
        assert [s.variable for s in case.stimuli] == ["m-BolusReq"] * 4
        # Pinned: RandomSource(0).stream("rtest") inter-arrival draws.
        assert case.stimulus_times() == [150_000, 5_457_656, 10_504_287, 15_900_905]

    def test_bolus_request_uniform_matches_legacy(self):
        # The bolus program at a fixed 4.6 s spacing: the legacy uniform
        # schedule, for every seed.
        program = replace(bolus_request_program(5), spacing=CycleSpacing(BOLUS_SPACING_US))
        for seed in (0, 3):
            assert program.compile(seed).stimulus_times() == [
                150_000,
                4_750_000,
                9_350_000,
                13_950_000,
                18_550_000,
            ]

    def test_empty_reservoir_programs_match_legacy(self):
        for program_builder, requirement_id in [
            (empty_reservoir_alarm_program, "REQ2"),
            (empty_reservoir_stop_program, "REQ3"),
        ]:
            for samples in (1, 3, 5):
                case = program_builder(samples).compile()
                assert case.name == f"empty-reservoir-{requirement_id}"
                assert case.requirement.requirement_id == requirement_id
                assert [(s.at_us, s.variable) for s in case.stimuli] == _cycle_schedule(samples)

    def test_empty_reservoir_alarm_pinned_first_cycle(self):
        case = empty_reservoir_alarm_program(2).compile()
        assert [(s.at_us, s.variable) for s in case.stimuli[:4]] == [
            (ms(150), "m-BolusReq"),
            (ms(150) + seconds(1), "m-EmptyReservoir"),
            (ms(150) + seconds(3), "m-ClearAlarm"),
            (ms(150) + seconds(4), "m-ReservoirRefill"),
        ]
        assert case.stimuli[4].at_us == ms(150) + seconds(8)

    def test_alarm_clear_program_matches_legacy(self):
        for samples in (1, 2, 5):
            case = alarm_clear_program(samples).compile()
            assert case.name == "alarm-clear"
            assert case.requirement.requirement_id == "REQ4"
            assert [(s.at_us, s.variable) for s in case.stimuli] == _cycle_schedule(samples)


class TestCompilation:
    def test_same_seed_compiles_identically(self):
        program = bolus_request_program(8)
        assert program.compile(seed=42) == program.compile(seed=42)

    def test_different_seed_changes_jittered_schedule(self):
        program = bolus_request_program(8)
        assert program.compile(seed=1).stimulus_times() != program.compile(seed=2).stimulus_times()

    def test_fixed_spacing_ignores_seed(self):
        program = empty_reservoir_alarm_program(3)
        assert program.compile(seed=1) == program.compile(seed=99)

    def test_pure_program_lowers_through_core_generator(self):
        # Pinned: the schedule the pre-DSL generator drew for the same bounds
        # (4.6-5.5 s gaps from 150 ms) and seed, from the "rtest" stream.
        case = bolus_request_program(6).compile(seed=17)
        assert case.stimulus_times() == [
            150_000,
            5_497_729,
            10_386_259,
            15_701_087,
            20_506_859,
            25_844_982,
        ]
        assert [s.variable for s in case.stimuli] == ["m-BolusReq"] * 6
        assert case.name == "bolus-request"
        assert case.description == "6 stimuli on m-BolusReq for REQ1"

    def test_general_path_orders_interleaved_steps(self):
        program = ScenarioProgram(
            name="interleaved",
            requirement=req2_empty_reservoir_alarm(),
            spacing=CycleSpacing(seconds(2)),
            samples=2,
            start_offset_us=0,
            setup=(StimulusStep("m-BolusReq", ms(500), ROLE_SETUP),),
            stimulus=StimulusPattern(offset_us=ms(100)),
            teardown=(StimulusStep("m-ReservoirRefill", seconds(3), ROLE_TEARDOWN),),
        )
        times = program.compile().stimulus_times()
        assert times == sorted(times)

    def test_burst_pattern_emits_gap_separated_measured_stimuli(self):
        program = ScenarioProgram(
            name="burst",
            requirement=req2_empty_reservoir_alarm(),
            spacing=CycleSpacing(seconds(5)),
            samples=2,
            stimulus=StimulusPattern(burst=3, burst_gap_us=ms(400)),
        )
        case = program.compile()
        assert case.sample_count == 6
        times = case.stimulus_times()
        assert times[1] - times[0] == ms(400) and times[2] - times[1] == ms(400)

    def test_with_samples_recompiles_to_new_count(self):
        program = empty_reservoir_alarm_program(2)
        assert program.with_samples(4).compile().sample_count == 4 * 4


class TestValidation:
    def test_rejects_burst_gap_below_requirement_separation(self):
        with pytest.raises(ValueError, match="minimum stimulus separation"):
            ScenarioProgram(
                name="bad",
                requirement=req1_bolus_start(),
                spacing=CycleSpacing(seconds(10)),
                stimulus=StimulusPattern(burst=2, burst_gap_us=ms(100)),
            )

    def test_rejects_spacing_below_requirement_separation(self):
        with pytest.raises(ValueError, match="minimum stimulus separation"):
            ScenarioProgram(
                name="bad",
                requirement=req1_bolus_start(),
                spacing=CycleSpacing(ms(500)),
            )

    def test_rejects_step_on_measured_variable(self):
        with pytest.raises(ValueError, match="collide"):
            ScenarioProgram(
                name="bad",
                requirement=req2_empty_reservoir_alarm(),
                spacing=CycleSpacing(seconds(5)),
                setup=(StimulusStep("m-EmptyReservoir", 0),),
            )

    def test_rejects_inverted_spacing_and_bad_pattern(self):
        with pytest.raises(ValueError):
            CycleSpacing(seconds(2), seconds(1))
        with pytest.raises(ValueError):
            StimulusPattern(burst=0)
        with pytest.raises(ValueError):
            StimulusStep("m-X", -1)


class TestCanonicalEncoding:
    def test_program_round_trips_through_dict(self):
        for program in [
            bolus_request_program(7),
            empty_reservoir_alarm_program(3),
            alarm_clear_program(2),
        ]:
            payload = json.loads(json.dumps(program.to_dict()))
            restored = ScenarioProgram.from_dict(payload)
            assert restored == program
            assert restored.compile(seed=5) == program.compile(seed=5)
