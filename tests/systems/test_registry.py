"""The system-pack registry: lookup, aggregation and error reporting."""

from __future__ import annotations

import pytest

from repro.systems import (
    CRUISE_PACK,
    DEFAULT_SYSTEM,
    GPCA_PACK,
    MODEL_BUILDERS,
    PACEMAKER_PACK,
    SystemPack,
    get_pack,
    iter_packs,
    model_system,
    pack_ids,
    register_pack,
)


class TestLookup:
    def test_default_system_is_gpca_and_registers_first(self):
        assert DEFAULT_SYSTEM == "gpca"
        assert pack_ids() == ("gpca", "pacemaker", "cruise")
        assert get_pack("gpca") is GPCA_PACK
        assert get_pack("pacemaker") is PACEMAKER_PACK
        assert get_pack("cruise") is CRUISE_PACK

    def test_iter_packs_yields_registration_order(self):
        assert [pack.system_id for pack in iter_packs()] == list(pack_ids())

    def test_unknown_system_lists_known_ids(self):
        with pytest.raises(ValueError, match=r"unknown system 'infusionator'"):
            get_pack("infusionator")
        with pytest.raises(ValueError, match=r"known: cruise, gpca, pacemaker"):
            get_pack("infusionator")

    def test_model_builders_aggregate_every_pack(self):
        assert set(MODEL_BUILDERS) == {"fig2", "extended", "pacemaker", "cruise"}

    def test_model_system_maps_each_model_to_its_pack(self):
        assert model_system("fig2") == "gpca"
        assert model_system("extended") == "gpca"
        assert model_system("pacemaker") == "pacemaker"
        assert model_system("cruise") == "cruise"

    def test_unknown_model_lists_known_models(self):
        with pytest.raises(ValueError, match=r"unknown model 'fig3'"):
            model_system("fig3")


class TestRegistration:
    def test_duplicate_system_id_is_rejected(self):
        clone = SystemPack(
            system_id="gpca",
            title=GPCA_PACK.title,
            description=GPCA_PACK.description,
            default_model="fig2",
            model_builders=dict(GPCA_PACK.model_builders),
            build_interface=GPCA_PACK.build_interface,
            build_system=GPCA_PACK.build_system,
            case_builders=dict(GPCA_PACK.case_builders),
            requirements=GPCA_PACK.requirements,
            scenario_space=GPCA_PACK.scenario_space,
            fault_suite=GPCA_PACK.fault_suite,
        )
        with pytest.raises(ValueError, match="already registered"):
            register_pack(clone)

    def test_pack_default_model_must_be_buildable(self):
        with pytest.raises(ValueError, match="default model 'missing'"):
            SystemPack(
                system_id="broken",
                title="broken",
                description="broken",
                default_model="missing",
                model_builders=dict(GPCA_PACK.model_builders),
                build_interface=GPCA_PACK.build_interface,
                build_system=GPCA_PACK.build_system,
                case_builders=dict(GPCA_PACK.case_builders),
                requirements=GPCA_PACK.requirements,
                scenario_space=GPCA_PACK.scenario_space,
                fault_suite=GPCA_PACK.fault_suite,
            )


class TestPackInventories:
    @pytest.mark.parametrize("pack", [GPCA_PACK, PACEMAKER_PACK, CRUISE_PACK])
    def test_every_pack_ships_a_full_inventory(self, pack):
        assert pack.default_model in pack.model_builders
        assert pack.case_builders
        assert len(pack.requirements()) >= 3
        space = pack.scenario_space()
        assert space.requirements

    @pytest.mark.parametrize("pack", [PACEMAKER_PACK, CRUISE_PACK])
    def test_new_pack_fault_suites_are_lazy_and_nonempty(self, pack):
        plans = pack.fault_suite()
        assert len(plans) >= 3
        assert len({plan.name for plan in plans}) == len(plans)
