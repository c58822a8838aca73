"""Unit tests for timing requirements, event specs and R-test cases."""

import pytest

from repro.core.four_variables import Event, EventKind
from repro.core.requirements import EventSpec, RequirementSet, TimingRequirement
from repro.core.test_generation import RTestCase, Stimulus
from repro.platform.kernel.time import ms
from repro.scenarios import CycleSpacing, ScenarioProgram


class TestEventSpec:
    def test_becomes(self):
        spec = EventSpec.becomes("c-X", 1)
        assert spec.matches(Event(EventKind.C, "c-X", 1, 0))
        assert not spec.matches(Event(EventKind.C, "c-X", 0, 0))
        assert not spec.matches(Event(EventKind.C, "c-Y", 1, 0))

    def test_becomes_positive(self):
        spec = EventSpec.becomes_positive("c-X")
        assert spec.matches(Event(EventKind.C, "c-X", 3, 0))
        assert not spec.matches(Event(EventKind.C, "c-X", 0, 0))
        assert spec.matches(Event(EventKind.C, "c-X", True, 0))

    def test_any_change(self):
        spec = EventSpec.any_change("c-X")
        assert spec.matches(Event(EventKind.C, "c-X", 0, 0))
        assert spec.matches(Event(EventKind.C, "c-X", 99, 0))


class TestTimingRequirement:
    def test_defaults_and_timeout(self, req1):
        assert req1.deadline_us == ms(100)
        assert req1.effective_timeout_us == ms(500)
        assert req1.has_model_counterpart

    def test_check_latency(self, req1):
        assert req1.check_latency(ms(100))
        assert not req1.check_latency(ms(101))
        assert not req1.check_latency(None)

    def test_model_counterpart_round_trip(self, req1):
        model_req = req1.to_model_requirement()
        assert model_req.trigger_event == "i-BolusReq"
        assert model_req.deadline_ticks == 100
        assert model_req.trigger_state == "Idle"

    def test_requirement_without_model_counterpart(self):
        requirement = TimingRequirement(
            requirement_id="X",
            stimulus=EventSpec.becomes("m-X", True),
            response=EventSpec.becomes("c-X", 1),
            deadline_us=ms(10),
        )
        assert not requirement.has_model_counterpart
        with pytest.raises(ValueError):
            requirement.to_model_requirement()

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            TimingRequirement(
                requirement_id="X",
                stimulus=EventSpec.becomes("m-X", True),
                response=EventSpec.becomes("c-X", 1),
                deadline_us=0,
            )

    def test_timeout_below_deadline_rejected(self):
        with pytest.raises(ValueError):
            TimingRequirement(
                requirement_id="X",
                stimulus=EventSpec.becomes("m-X", True),
                response=EventSpec.becomes("c-X", 1),
                deadline_us=ms(100),
                timeout_us=ms(50),
            )


class TestRequirementSet:
    def test_gpca_catalogue(self):
        from repro.gpca import gpca_requirements

        catalogue = gpca_requirements()
        assert len(catalogue) == 4
        assert "REQ1" in catalogue
        assert catalogue.get("REQ1").deadline_us == ms(100)
        assert len(catalogue.with_model_counterpart()) == 4

    def test_duplicate_id_rejected(self, req1):
        catalogue = RequirementSet("x", [req1])
        with pytest.raises(ValueError):
            catalogue.add(req1)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            RequirementSet("x").get("missing")


class TestTestGeneration:
    """Writing R-test schedules: scenario programs compiled to ``RTestCase``."""

    def test_uniform_spacing(self, req1):
        case = ScenarioProgram("uniform", req1, CycleSpacing(ms(4200)), samples=5).compile()
        times = case.stimulus_times()
        assert len(times) == 5
        assert times[0] == ms(10)
        assert all(b - a == ms(4200) for a, b in zip(times, times[1:]))
        assert {stimulus.variable for stimulus in case.stimuli} == {"m-BolusReq"}

    def test_randomized_is_seeded(self, req1):
        program = ScenarioProgram("jitter", req1, CycleSpacing(ms(4200), ms(6000)), samples=8)
        assert program.compile(seed=3) == program.compile(seed=3)
        assert program.compile(seed=3) != program.compile(seed=4)

    def test_randomized_respects_bounds(self, req1):
        program = ScenarioProgram("jitter", req1, CycleSpacing(ms(4200), ms(5000)), samples=20)
        times = program.compile(seed=1).stimulus_times()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(ms(4200) <= gap <= ms(5000) for gap in gaps)
        assert len(set(gaps)) > 1

    def test_boundary_uses_requirement_minimum(self, req1):
        spacing = CycleSpacing(req1.min_stimulus_separation_us)
        times = ScenarioProgram("boundary", req1, spacing, samples=3).compile().stimulus_times()
        assert times[1] - times[0] == req1.min_stimulus_separation_us

    def test_generator_rejects_too_small_separation(self, req1):
        with pytest.raises(ValueError, match="minimum stimulus separation"):
            ScenarioProgram("tight", req1, CycleSpacing(ms(100)), samples=3)

    def test_run_horizon_covers_timeout(self, req1):
        case = ScenarioProgram("horizon", req1, CycleSpacing(ms(4200)), samples=2).compile()
        assert case.run_horizon_us == case.last_stimulus_us + req1.effective_timeout_us

    def test_paper_example_sequence(self, req1):
        """The example sequence of Section III, stated as a case directly."""
        stimuli = tuple(Stimulus(ms(at_ms), "m-BolusReq") for at_ms in (10, 300, 500))
        case = RTestCase("REQ1-paper-example", req1, stimuli)
        assert case.stimulus_times() == [ms(10), ms(300), ms(500)]
        assert case.sample_count == 3
        assert case.run_horizon_us == ms(500) + req1.effective_timeout_us

    def test_invalid_config_rejected(self, req1):
        with pytest.raises(ValueError):
            RTestCase("x", req1, (Stimulus(ms(300), "m-BolusReq"), Stimulus(ms(10), "m-BolusReq")))
        with pytest.raises(ValueError):
            Stimulus(-1, "m-BolusReq")
        with pytest.raises(ValueError):
            ScenarioProgram("x", req1, CycleSpacing(ms(4200)), samples=0)
        with pytest.raises(ValueError):
            CycleSpacing(ms(10), ms(5))
