"""Kill-matrix engine: grid expansion, scoring and campaign integration."""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.faults import default_matrix_spec
from repro.faults.matrix import FaultMatrixSpec, KillMatrix, run_kill_matrix
from repro.faults.models import FaultPlan, SensorStuckFault
from repro.faults.mutants import MutantSpec
from repro.obs import REGISTRY
from repro.systems.gpca import GPCA_PACK

#: The engine counters a default matrix's systems fold into the registry.
ENGINE_COUNTERS = (
    "kernel_events_processed_total",
    "kernel_dormant_rearms_total",
    "kernel_window_events_total",
    "kernel_cancellations_total",
    "kernel_compactions_total",
    "scheduler_activations_total",
    "scheduler_completions_total",
    "scheduler_dispatch_rounds_total",
    "scheduler_preemptions_total",
    "scheduler_deadline_misses_total",
)


def engine_deltas_of(spec):
    """Run ``spec`` serially; return it and the registry's engine-counter deltas."""
    before = {name: REGISTRY.counter_value(name) for name in ENGINE_COUNTERS}
    result = CampaignRunner(spec, workers=1).run()
    return result, {name: REGISTRY.counter_value(name) - before[name] for name in ENGINE_COUNTERS}

STUCK_BUTTON = FaultPlan((SensorStuckFault(device="bolus_button"),), name="stuck-button")
MOTOR_DROP = MutantSpec(
    operator="action-drop",
    transition="t_start_infusion",
    mutant_id="drop:t_start_infusion:0:o-MotorState",
    action_index=0,
)


def tiny_spec(**overrides) -> FaultMatrixSpec:
    """One fault x one mutant x scheme 2 x the bolus scenario (fast)."""
    options = dict(
        name="tiny-matrix",
        fault_plans=(STUCK_BUTTON,),
        mutants=(MOTOR_DROP,),
        fault_schemes=(2,),
        mutant_schemes=(2,),
        cases=("bolus-request",),
        samples=2,
    )
    options.update(overrides)
    return FaultMatrixSpec(**options)


class TestSpecExpansion:
    def test_baselines_come_first_and_indices_are_sequential(self):
        runs = tiny_spec().expand()
        assert [run.index for run in runs] == list(range(len(runs)))
        assert runs[0].faults is None and runs[0].mutant is None
        assert runs[1].faults is not None and runs[1].mutant is None
        assert runs[2].faults is None and runs[2].mutant is not None

    def test_injected_runs_share_the_baseline_seeds(self):
        """Only the defect may differ between a baseline and an injected run."""
        baseline, faulted, mutated = tiny_spec().expand()
        assert faulted.sut_seed == baseline.sut_seed
        assert faulted.case_seed == baseline.case_seed
        assert mutated.sut_seed == baseline.sut_seed
        assert mutated.case_seed == baseline.case_seed

    def test_size_matches_expansion(self):
        spec = tiny_spec(fault_schemes=(1, 2), cases=("bolus-request", "alarm-clear"))
        assert spec.size == len(spec.expand())

    def test_labels_carry_the_injected_coordinate(self):
        _, faulted, mutated = tiny_spec().expand()
        assert "+stuck-button" in faulted.label
        assert "+drop:t_start_infusion:0:o-MotorState" in mutated.label

    def test_spec_to_dict_is_canonical(self):
        payload = tiny_spec().to_dict()
        assert payload["fault_plans"][0]["name"] == "stuck-button"
        assert payload["mutants"][0]["mutant_id"] == MOTOR_DROP.mutant_id
        assert payload["size"] == 3

    def test_default_cases_are_the_named_systems(self):
        spec = FaultMatrixSpec(system="pacemaker", model="pacemaker")
        assert spec.cases == ("magnet-pace", "rate-adapt", "sense-inhibit")
        assert {run.case for run in spec.expand()} == set(spec.cases)
        with pytest.raises(ValueError, match="at least one scenario"):
            FaultMatrixSpec(system="pacemaker", model="pacemaker", cases=())

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            tiny_spec(cases=("not-a-scenario",))
        with pytest.raises(ValueError, match="unknown implementation scheme"):
            tiny_spec(fault_schemes=(7,))
        with pytest.raises(ValueError, match="sample count"):
            tiny_spec(samples=0)

    def test_rejects_empty_and_duplicate_axis_points(self):
        # An empty plan would score as a baseline and vanish from the matrix.
        with pytest.raises(ValueError, match="is empty"):
            tiny_spec(fault_plans=(FaultPlan(),))
        with pytest.raises(ValueError, match="unique"):
            tiny_spec(fault_plans=(STUCK_BUTTON, STUCK_BUTTON))
        with pytest.raises(ValueError, match="unique"):
            tiny_spec(mutants=(MOTOR_DROP, MOTOR_DROP))


class TestScoring:
    @pytest.fixture(scope="class")
    def matrix(self) -> KillMatrix:
        return run_kill_matrix(tiny_spec())

    def test_stuck_button_is_detected(self, matrix):
        assert matrix.detected_faults() == ["stuck-button"]
        assert matrix.fault_detecting_cases("stuck-button") == ["bolus-request"]

    def test_motor_drop_mutant_is_killed(self, matrix):
        assert matrix.killed_mutants() == [MOTOR_DROP.mutant_id]
        assert matrix.surviving_mutants() == []
        assert matrix.mutation_score == 1.0

    def test_render_summarises_both_axes(self, matrix):
        rendered = matrix.render()
        assert "fault classes detected: 1/1" in rendered
        assert "mutation score: 1/1 (100%)" in rendered
        assert "KILL" in rendered

    def test_to_dict_records_cells_deterministically(self, matrix):
        payload = matrix.to_dict()
        assert payload["mutation_score"] == 1.0
        assert payload["faults"]["stuck-button"]["detected"] is True
        assert payload["faults"]["stuck-button"]["detected_by"] == ["bolus-request"]
        cell = payload["mutants"][MOTOR_DROP.mutant_id]["cells"][0]
        assert cell["baseline_passed"] is True and cell["killed"] is True

    def test_unscoreable_when_baseline_fails(self):
        # Scheme 3 fails bolus-request on its own; nothing can be attributed.
        matrix = run_kill_matrix(tiny_spec(fault_schemes=(3,), mutant_schemes=(3,)))
        assert matrix.detected_faults() == []
        assert matrix.killed_mutants() == []
        assert "(base fails)" in matrix.render()

    def test_mutation_score_is_none_without_a_mutant_axis(self):
        matrix = run_kill_matrix(tiny_spec(mutants=()))
        assert matrix.mutation_score is None


class TestCampaignIntegration:
    def test_matrix_campaign_is_deterministic(self):
        spec = tiny_spec()
        first = CampaignRunner(spec, workers=1).run()
        second = CampaignRunner(spec, workers=1).run()
        assert first.to_json() == second.to_json()

    @pytest.mark.slow
    def test_parallel_matrix_aggregate_is_byte_identical_to_serial(self):
        spec = tiny_spec()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert serial.to_json() == parallel.to_json()


@pytest.mark.slow
class TestDefaultGpcaMatrix:
    """The stock matrix ``repro faults`` runs: samples 3, seed 0, serial."""

    KILLED = [
        "drop:t_bolus_done:0:o-MotorState",
        "drop:t_clear_alarm:0:o-BuzzerState",
        "drop:t_empty_alarm:0:o-MotorState",
        "drop:t_empty_alarm:1:o-BuzzerState",
        "drop:t_start_infusion:0:o-MotorState",
        "retarget:t_bolus_done:BolusRequested",
        "retarget:t_bolus_req:Infusion",
        "retarget:t_empty_alarm:Idle",
        "retarget:t_start_infusion:EmptyAlarm",
        "timing:t_bolus_done:6000",
    ]
    SURVIVING = ["retarget:t_clear_alarm:BolusRequested", "timing:t_bolus_done:2000"]
    #: Fault class -> the scenarios that detect it, in matrix order.
    DETECTED_BY = {
        "clock-drift": ["bolus-request"],
        "exec-inflation": ["bolus-request", "empty-reservoir-stop"],
        "priority-inversion": ["bolus-request"],
        "queue-delay": ["alarm-clear", "bolus-request", "empty-reservoir-alarm", "empty-reservoir-stop"],
        "queue-loss": ["alarm-clear", "bolus-request", "empty-reservoir-alarm", "empty-reservoir-stop"],
        "sensor-glitch": ["alarm-clear", "empty-reservoir-alarm", "empty-reservoir-stop"],
        "sensor-stuck": ["alarm-clear", "empty-reservoir-alarm", "empty-reservoir-stop", "bolus-request"],
    }

    #: The engine's lifetime counters summed over the matrix's systems, as
    #: the worker folds them into the registry.  Every count but the window
    #: events is the callback path's: quiescent windows replay their events
    #: without dispatching them, and ``kernel_window_events`` is that subset.
    ENGINE_TOTALS = {
        "kernel_events_processed_total": 2_574_914,
        "kernel_dormant_rearms_total": 1_918_728,
        "kernel_window_events_total": 2_214_038,
        "kernel_cancellations_total": 32_134,
        "kernel_compactions_total": 0,
        "scheduler_activations_total": 369_014,
        "scheduler_completions_total": 368_800,
        "scheduler_dispatch_rounds_total": 483_648,
        "scheduler_preemptions_total": 32_134,
        "scheduler_deadline_misses_total": 28_003,
    }

    @pytest.fixture(scope="class")
    def spec(self):
        return default_matrix_spec(samples=3, base_seed=0)

    @pytest.fixture(scope="class")
    def engine_deltas(self):
        """Filled by ``campaign``: the registry's engine-counter deltas over the run."""
        return {}

    @pytest.fixture(scope="class")
    def campaign(self, spec, engine_deltas):
        result, deltas = engine_deltas_of(spec)
        engine_deltas.update(deltas)
        return result

    def test_engine_counters_are_pinned(self, campaign, engine_deltas):
        assert engine_deltas == self.ENGINE_TOTALS

    def test_kills_ten_of_twelve_mutants_and_detects_all_seven_fault_classes(self, spec, campaign):
        scheme_two_baselines = [
            record
            for record in campaign.records
            if record.spec.scheme == 2 and record.spec.faults is None and record.spec.mutant is None
        ]
        assert sorted(record.spec.case for record in scheme_two_baselines) == sorted(
            GPCA_PACK.case_builders
        )
        assert all(record.passed for record in scheme_two_baselines)

        matrix = KillMatrix.from_campaign(spec, campaign)
        assert sorted(matrix.killed_mutants()) == self.KILLED
        assert sorted(matrix.surviving_mutants()) == self.SURVIVING
        assert matrix.undetected_faults() == []
        assert {
            name: matrix.fault_detecting_cases(name) for name in matrix.fault_cells
        } == self.DETECTED_BY

    def test_table_one_holds_exactly_the_two_baseline_columns(self, campaign):
        """Faulted and mutant runs at the case are not Table I columns."""
        baselines = [
            record
            for record in campaign.records
            if record.spec.case == "bolus-request"
            and record.spec.faults is None
            and record.spec.mutant is None
        ]
        table = campaign.table_one("bolus-request")
        assert [result.scheme for result in table.results] == [1, 2]
        assert len(baselines) == 2
        rows = table.rows()
        for record in baselines:
            column = [row[f"scheme{record.spec.scheme}_r"] for row in rows]
            assert column == [
                sample.latency_label() + ("" if sample.passed else " *")
                for sample in record.r_report().samples
            ]


#: The ten engine totals of the pacemaker and cruise default matrices at
#: samples 6, seed 0 (what the ledger's ``packs-parallel`` workload runs),
#: summed like ``TestDefaultGpcaMatrix.ENGINE_TOTALS``.
PACK_ENGINE_TOTALS = {
    "pacemaker": {
        "kernel_events_processed_total": 886_489,
        "kernel_dormant_rearms_total": 567_798,
        "kernel_window_events_total": 775_067,
        "kernel_cancellations_total": 16_633,
        "kernel_compactions_total": 0,
        "scheduler_activations_total": 188_004,
        "scheduler_completions_total": 187_770,
        "scheduler_dispatch_rounds_total": 232_152,
        "scheduler_preemptions_total": 16_633,
        "scheduler_deadline_misses_total": 4_652,
    },
    "cruise": {
        "kernel_events_processed_total": 1_419_669,
        "kernel_dormant_rearms_total": 1_116_533,
        "kernel_window_events_total": 1_217_694,
        "kernel_cancellations_total": 15_620,
        "kernel_compactions_total": 0,
        "scheduler_activations_total": 176_195,
        "scheduler_completions_total": 175_952,
        "scheduler_dispatch_rounds_total": 221_850,
        "scheduler_preemptions_total": 15_620,
        "scheduler_deadline_misses_total": 6_193,
    },
}


@pytest.mark.parametrize("system", sorted(PACK_ENGINE_TOTALS))
def test_pack_matrix_engine_counters_are_pinned(system):
    _, deltas = engine_deltas_of(default_matrix_spec(samples=6, base_seed=0, system=system))
    assert deltas == PACK_ENGINE_TOTALS[system]
