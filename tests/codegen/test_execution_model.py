"""Unit tests for the execution-time model."""

import pytest

from repro.codegen.execution_model import ExecutionTimeModel
from repro.gpca import TRANS_BOLUS_REQUEST, TRANS_START_INFUSION, arm7_execution_model
from repro.platform.kernel.random import RandomSource, constant, uniform
from repro.platform.kernel.time import ms


class TestExecutionTimeModel:
    def test_default_costs_are_positive(self, fig2_artifacts):
        model = ExecutionTimeModel()
        row = fig2_artifacts.code_model.transitions[0]
        assert model.transition_cost(row) > 0
        assert model.input_scan_cost() > 0
        assert model.output_write_cost() > 0

    def test_per_action_cost_added(self, fig2_artifacts):
        model = ExecutionTimeModel(
            transition_base=constant(ms(5)), per_action=constant(ms(2))
        )
        rows = {row.name: row for row in fig2_artifacts.code_model.transitions}
        assert model.transition_cost(rows["t_bolus_req"]) == ms(5)          # no actions
        assert model.transition_cost(rows["t_start_infusion"]) == ms(7)     # one action
        assert model.transition_cost(rows["t_empty_alarm"]) == ms(9)        # two actions

    def test_override_takes_precedence(self, fig2_artifacts):
        model = ExecutionTimeModel(transition_base=constant(ms(5)))
        rows = {row.name: row for row in fig2_artifacts.code_model.transitions}
        model.transition_overrides["t_bolus_req"] = constant(ms(11))
        assert model.transition_cost(rows["t_bolus_req"]) == ms(11)

    def test_deterministic_without_rng(self, fig2_artifacts):
        model = arm7_execution_model()
        row = fig2_artifacts.code_model.transitions[0]
        assert model.transition_cost(row) == model.transition_cost(row)

    def test_jitter_bounded(self, fig2_artifacts):
        model = ExecutionTimeModel(transition_base=uniform(ms(10), ms(2)), per_action=constant(0))
        row = fig2_artifacts.code_model.transitions[0]
        rng = RandomSource(1).stream("cost")
        for _ in range(100):
            assert ms(8) <= model.transition_cost(row, rng) <= ms(12)

    def test_scaled_model(self, fig2_artifacts):
        model = arm7_execution_model().scaled(2.0)
        rows = {row.name: row for row in fig2_artifacts.code_model.transitions}
        assert model.transition_overrides[TRANS_BOLUS_REQUEST].nominal_us == 2 * ms(11)
        assert model.transition_cost(rows[TRANS_START_INFUSION]) == pytest.approx(2 * ms(20), rel=0.01)

    def test_arm7_profile_matches_paper_transition_delays(self, fig2_artifacts):
        """The case-study profile lands near the paper's 11 ms / 20 ms delays."""
        model = arm7_execution_model()
        rows = {row.name: row for row in fig2_artifacts.code_model.transitions}
        assert model.transition_cost(rows[TRANS_BOLUS_REQUEST]) == ms(11)
        assert model.transition_cost(rows[TRANS_START_INFUSION]) == ms(20)
