"""Survivor hunter: differential episodes, determinism, plateau behaviour."""

from __future__ import annotations

from repro.faults import MutantSpec, SurvivorHunter, generate_mutants
from repro.faults.hunt import mc_signature
from repro.gpca import gpca_scenario_space
from repro.gpca.model import build_fig2_statechart


def mutant_by_id(mutant_id: str) -> MutantSpec:
    for mutant in generate_mutants(build_fig2_statechart()):
        if mutant.mutant_id == mutant_id:
            return mutant
    raise AssertionError(f"no generated mutant {mutant_id!r}")


def test_hunter_kills_the_timing_survivor():
    """`timing:t_bolus_done:2000` survives the fixed scenarios (a shorter
    bolus violates nothing they measure) but differs observably at the m/c
    boundary — the hunter must find a distinguishing program."""
    survivor = mutant_by_id("timing:t_bolus_done:2000")
    hunter = SurvivorHunter(gpca_scenario_space(), [survivor], scheme=2, seed=0)
    report = hunter.hunt(6)
    assert survivor.mutant_id in report.kills
    assert report.remaining == []
    killing = next(episode for episode in report.episodes if episode.killed)
    assert killing.program.name == report.kills[survivor.mutant_id]


def test_hunt_is_seed_deterministic():
    survivor = mutant_by_id("timing:t_bolus_done:2000")
    first = SurvivorHunter(gpca_scenario_space(), [survivor], scheme=2, seed=3).hunt(4)
    second = SurvivorHunter(gpca_scenario_space(), [survivor], scheme=2, seed=3).hunt(4)
    assert first.summary() == second.summary()
    assert first.to_dict() == second.to_dict()


def test_hunt_stops_early_once_every_survivor_is_killed():
    survivor = mutant_by_id("timing:t_bolus_done:2000")
    report = SurvivorHunter(gpca_scenario_space(), [survivor], scheme=2, seed=0).hunt(20)
    assert len(report.episodes) < 20


def test_mc_signature_is_blind_to_internal_events():
    """The kill oracle observes monitored/controlled variables only."""
    from repro.core.r_testing import execute_r_test
    from repro.gpca import bolus_request_program
    from repro.systems import get_pack

    report = execute_r_test(
        lambda: get_pack("gpca").build_system(2, seed=11),
        bolus_request_program(1).compile(1),
    )
    verdicts, c_events = mc_signature(report)
    assert len(verdicts) == 1
    assert c_events  # the motor started: at least one c-event
    assert all(variable.startswith("c-") for variable, _, _ in c_events)
