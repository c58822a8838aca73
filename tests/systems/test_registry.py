"""The system-pack registry: lookup, the pack table and error reporting."""

from __future__ import annotations

import pytest

from repro.systems import DEFAULT_SYSTEM, SystemPack, get_pack, iter_packs, model_system, pack_ids
from repro.systems import base
from repro.systems.base import PACK_TABLE, PackEntry, model_builder, model_names
from repro.systems.cruise import CRUISE_PACK
from repro.systems.gpca import GPCA_PACK
from repro.systems.pacemaker import PACEMAKER_PACK


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

    def test_the_table_names_every_pack_model(self):
        assert model_names() == ("cruise", "extended", "fig2", "pacemaker")
        for pack in iter_packs():
            for model, builder in pack.model_builders.items():
                assert model_builder(model) is builder

    def test_model_system_maps_each_model_to_its_pack(self):
        assert model_system("fig2") == "gpca"
        assert model_system("extended") == "gpca"
        assert model_system("pacemaker") == "pacemaker"
        assert model_system("cruise") == "cruise"

    def test_unknown_model_lists_known_models(self):
        with pytest.raises(ValueError, match=r"unknown model 'fig3'"):
            model_system("fig3")


class TestRegistration:
    def test_a_model_listed_under_two_packs_is_rejected(self):
        clash = PackEntry("clone", "repro.systems.gpca", "GPCA_PACK", ("fig2",))
        with pytest.raises(ValueError, match="model 'fig2' of system 'clone' is already listed under system 'gpca'"):
            base._model_systems((*PACK_TABLE, clash))

    @pytest.mark.parametrize(
        "entry",
        [
            PackEntry("gpca", "repro.systems.pacemaker", "PACEMAKER_PACK", ("pacemaker",)),
            PackEntry("pacemaker", "repro.systems.pacemaker", "PACEMAKER_PACK", ("pacemaker", "paced")),
        ],
        ids=["other-id", "other-models"],
    )
    def test_a_pack_that_differs_from_its_table_row_is_rejected(self, monkeypatch, entry):
        monkeypatch.setattr(base, "_ENTRIES", {**base._ENTRIES, entry.system_id: entry})
        monkeypatch.setattr(base, "_LOADED", {})
        with pytest.raises(ValueError, match="but the pack table lists"):
            get_pack(entry.system_id)

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
