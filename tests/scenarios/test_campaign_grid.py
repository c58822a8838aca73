"""Tests of scenario programs as campaign grid axes."""

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CasePoint,
    preset_spec,
    scenario_grid_spec,
)
from repro.gpca import bolus_request_program, empty_reservoir_alarm_program
from repro.systems.gpca import EXTENDED_MODEL_SHIFT_US


class TestCasePointPrograms:
    def test_for_program_builds_consistent_point(self):
        program = empty_reservoir_alarm_program(3)
        point = CasePoint.for_program(program)
        assert point.case == program.name
        assert point.samples == 3
        assert point.program is program

    def test_rejects_mismatched_name(self):
        program = bolus_request_program(2)
        with pytest.raises(ValueError, match="does not match"):
            CasePoint(case="wrong-name", samples=2, program=program)

    def test_named_point_still_validated_against_registry(self):
        with pytest.raises(ValueError, match="unknown campaign scenario"):
            CasePoint(case="no-such-scenario")


class TestScenarioGrid:
    def test_grid_is_seed_deterministic(self):
        a = scenario_grid_spec(count=3, base_seed=5)
        b = scenario_grid_spec(count=3, base_seed=5)
        assert a == b
        assert a.to_dict() == b.to_dict()
        assert scenario_grid_spec(count=3, base_seed=6) != a

    def test_preset_routes_samples_and_seed(self):
        spec = preset_spec("scenarios", samples=2, seed=9)
        assert spec.name == "scenarios"
        assert spec.base_seed == 9
        assert all(point.samples == 2 for point in spec.cases)
        assert spec.size == 3 * len(spec.cases)

    def test_spec_dict_is_json_serializable(self):
        payload = json.dumps(scenario_grid_spec(count=2).to_dict())
        assert "gen-" in payload

    def test_run_spec_regenerates_program_schedule(self):
        spec = scenario_grid_spec(count=2, samples=2)
        runs = spec.expand()
        assert all(run.program is not None for run in runs)
        for run in runs:
            case = run.test_case()
            assert case.name == run.case
            assert case == run.test_case()  # deterministic regeneration

    def test_extended_model_shifts_program_schedules(self):
        spec = scenario_grid_spec(count=1, samples=2)
        run = spec.expand()[0]
        shifted = dataclasses.replace(run, model="extended")
        base_times = run.test_case().stimulus_times()
        shifted_times = shifted.test_case().stimulus_times()
        assert shifted_times == [t + EXTENDED_MODEL_SHIFT_US for t in base_times]


@pytest.mark.slow
class TestScenarioCampaignExecution:
    def test_parallel_aggregate_matches_serial(self):
        spec = scenario_grid_spec(count=2, samples=2)
        serial = CampaignRunner(spec, workers=1).run()
        runner = CampaignRunner(spec, workers=2)
        parallel = runner.run()
        if runner.fell_back_to_serial:
            pytest.skip(f"process pool unavailable: {runner.fallback_reason}")
        assert serial.to_json() == parallel.to_json()
