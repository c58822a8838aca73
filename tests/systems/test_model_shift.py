"""Generated programs run against the extended GPCA chart honour its stimulus shift.

The extended chart ignores stimuli during its 500 ms power-on self test, so
the GPCA pack shifts every schedule run against it.  ``repro explore`` and
the survivor hunter must execute the schedule a campaign run of the same
program and compile seed executes (``RunSpec.test_case()``); a stimulus
inside the self test would otherwise come out as an artifact MAX verdict.
"""

from __future__ import annotations

from repro import cli
from repro.campaign.spec import RunSpec
from repro.faults import SurvivorHunter, generate_mutants
from repro.faults import hunt as hunt_module
from repro.gpca import gpca_scenario_space
from repro.gpca.model import build_extended_statechart
from repro.platform.kernel.random import RandomSource
from repro.scenarios import CoverageGuidedExplorer
from repro.scenarios import explore as explore_module


def campaign_schedule(episode):
    """The schedule a campaign runs for an episode's program and compile seed."""
    program = episode.program
    compile_seed = RandomSource(0).fork(f"compile:{episode.index}").seed
    return RunSpec(
        index=0, scheme=1, case=program.name, samples=program.samples,
        case_seed=compile_seed, sut_seed=11, model="extended", program=program,
    ).test_case()


def record_executed_cases(monkeypatch, module):
    executed = []
    execute = module.execute_r_test

    def recording(factory, test_case):
        executed.append(test_case)
        return execute(factory, test_case)

    monkeypatch.setattr(module, "execute_r_test", recording)
    return executed


def test_explore_runs_the_campaign_schedule_on_the_extended_model(monkeypatch, capsys):
    executed = record_executed_cases(monkeypatch, explore_module)
    reports = []
    explore = CoverageGuidedExplorer.explore
    monkeypatch.setattr(
        CoverageGuidedExplorer, "explore", lambda self, n: reports.append(explore(self, n)) or reports[-1]
    )
    assert cli.main(["explore", "--model", "extended", "--seed", "0", "--episodes", "2"]) == 0
    capsys.readouterr()
    assert executed == [campaign_schedule(episode) for episode in reports[0].episodes]


def test_hunter_runs_the_campaign_schedule_on_the_extended_model(monkeypatch):
    executed = record_executed_cases(monkeypatch, hunt_module)
    mutants = generate_mutants(build_extended_statechart())[:2]
    report = SurvivorHunter(gpca_scenario_space(), mutants, model="extended", seed=0).hunt(2)
    # Each episode runs the original and the mutant on one schedule.
    assert executed == [campaign_schedule(episode) for episode in report.episodes for _ in range(2)]
