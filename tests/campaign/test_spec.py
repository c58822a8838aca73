"""Grid expansion and seed derivation of campaign specs."""

from __future__ import annotations

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    CasePoint,
    SchemePoint,
    build_case,
    derive_seed,
    full_grid_spec,
    interference_sweep_spec,
    period_sweep_spec,
    preset_spec,
    table_one_spec,
)


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="unit",
        schemes=(SchemePoint(1), SchemePoint(2)),
        cases=(CasePoint("bolus-request", samples=3), CasePoint("alarm-clear", samples=2)),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestExpansion:
    def test_cartesian_size_and_contiguous_indices(self):
        runs = small_spec().expand()
        assert len(runs) == 4
        assert [run.index for run in runs] == [0, 1, 2, 3]

    def test_product_order_is_schemes_outer_cases_inner(self):
        runs = small_spec().expand()
        assert [(run.scheme, run.case) for run in runs] == [
            (1, "bolus-request"),
            (1, "alarm-clear"),
            (2, "bolus-request"),
            (2, "alarm-clear"),
        ]

    def test_scheme_overrides_propagate(self):
        spec = CampaignSpec(
            name="unit",
            schemes=(SchemePoint(1, period_us=10_000), SchemePoint(3, interference_scale=0.5)),
            cases=(CasePoint("bolus-request", samples=1),),
        )
        first, second = spec.expand()
        assert first.period_us == 10_000 and first.interference_scale is None
        assert second.interference_scale == 0.5 and second.period_us is None

    def test_expansion_is_deterministic(self):
        assert small_spec().expand() == small_spec().expand()

    def test_run_spec_regenerates_identical_schedules(self):
        run = small_spec().expand()[0]
        first, second = run.test_case(), run.test_case()
        assert first.stimuli == second.stimuli
        assert first.requirement.requirement_id == second.requirement.requirement_id


class TestSeeds:
    def test_derive_seed_is_stable_and_coordinate_dependent(self):
        assert derive_seed(0, "sut", 1) == derive_seed(0, "sut", 1)
        assert derive_seed(0, "sut", 1) != derive_seed(0, "sut", 2)
        assert derive_seed(0, "sut", 1) != derive_seed(1, "sut", 1)

    def test_adding_a_scheme_point_does_not_reshuffle_existing_seeds(self):
        base = small_spec().expand()
        widened = small_spec(
            schemes=(SchemePoint(1), SchemePoint(2), SchemePoint(3))
        ).expand()
        by_coords = {(run.scheme, run.case): run for run in widened}
        for run in base:
            twin = by_coords[(run.scheme, run.case)]
            assert twin.sut_seed == run.sut_seed
            assert twin.case_seed == run.case_seed

    def test_explicit_seeds_are_respected(self):
        runs = table_one_spec().expand()
        assert [run.sut_seed for run in runs] == [11, 22, 33]
        assert all(run.case_seed == 7 for run in runs)


class TestValidation:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown implementation scheme"):
            SchemePoint(4)

    def test_rejects_period_on_non_scheme1(self):
        with pytest.raises(ValueError, match="period_us"):
            SchemePoint(2, period_us=10_000)

    def test_rejects_interference_on_non_scheme3(self):
        with pytest.raises(ValueError, match="interference_scale"):
            SchemePoint(1, interference_scale=1.0)

    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError, match="unknown campaign scenario"):
            CasePoint("no-such-scenario")

    def test_rejects_unknown_m_test_policy(self):
        with pytest.raises(ValueError, match="m_test"):
            small_spec(m_test="sometimes")

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="scheme"):
            small_spec(schemes=())
        with pytest.raises(ValueError, match="scenario"):
            small_spec(cases=())

    def test_build_case_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown campaign scenario"):
            build_case("nope", 1, 0)


class TestPresets:
    def test_table_one_grid_shape(self):
        spec = table_one_spec()
        assert spec.size == 3
        assert {run.scheme for run in spec.expand()} == {1, 2, 3}

    def test_period_sweep_covers_requested_periods(self):
        spec = period_sweep_spec(periods_ms=(10, 50), samples=2)
        assert [run.period_us for run in spec.expand()] == [10_000, 50_000]

    def test_interference_sweep_covers_requested_scales(self):
        spec = interference_sweep_spec(scales=(0.0, 1.0), samples=2)
        assert [run.interference_scale for run in spec.expand()] == [0.0, 1.0]

    def test_full_grid_is_schemes_times_scenarios(self):
        assert full_grid_spec().size == 12

    def test_preset_spec_defaults_and_overrides(self):
        assert preset_spec("table1").expand()[0].samples == 10
        assert preset_spec("table1", samples=4).expand()[0].samples == 4
        with pytest.raises(ValueError, match="unknown campaign grid"):
            preset_spec("no-such-grid")
