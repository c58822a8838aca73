#!/usr/bin/env python3
"""Coverage-guided scenario generation on the GPCA pump, end to end.

Demonstrates the scenario subsystem (``repro.scenarios``):

1. express a hand-written GPCA scenario as a declarative
   :class:`ScenarioProgram` and compile it to an R-test case;
2. sample *generated* programs from the bounded GPCA scenario space with a
   seeded :class:`ScenarioSampler`;
3. run the :class:`CoverageGuidedExplorer` against implementation scheme 1:
   execute compiled programs, measure model transition/state coverage from
   the traces, and bias further sampling toward uncovered behaviour.

Run with:  python examples/scenario_explore.py
"""

from __future__ import annotations

from repro.campaign import process_cache
from repro.gpca import empty_reservoir_alarm_program, gpca_scenario_space
from repro.scenarios import CoverageGuidedExplorer, ScenarioSampler
from repro.systems import get_pack


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A hand-written scenario as a declarative program
    # ------------------------------------------------------------------
    program = empty_reservoir_alarm_program(samples=3)
    case = program.compile()
    print("== Scenario DSL ==")
    print(f"program {program.name!r}: {program.samples} cycles, "
          f"{len(program.setup)} setup + {program.stimulus.burst} measured + "
          f"{len(program.teardown)} teardown steps per cycle")
    print(f"compiles to {len(case.stimuli)} stimuli for {case.requirement.requirement_id}; "
          f"first cycle:")
    for stimulus in case.stimuli[: program.stimuli_per_cycle]:
        print(f"    {stimulus.at_us / 1000:8.1f} ms  {stimulus.variable}")
    print()

    # ------------------------------------------------------------------
    # 2. Seeded sampling from the scenario space
    # ------------------------------------------------------------------
    sampler = ScenarioSampler(gpca_scenario_space(), seed=0)
    print("== Generated programs (seed 0) ==")
    for _ in range(3):
        generated = sampler.sample()
        print(f"    {generated.name}: {generated.requirement.requirement_id}, "
              f"{generated.samples} cycles, spacing >= {generated.spacing.min_us / 1000:.0f} ms, "
              f"{len(generated.setup)} setup step(s), burst {generated.stimulus.burst}")
    print()

    # ------------------------------------------------------------------
    # 3. Coverage-guided exploration against scheme 1
    # ------------------------------------------------------------------
    pack = get_pack("gpca")
    artifacts = process_cache().artifacts_for_model("fig2")

    def factory():
        return pack.build_system(1, seed=11, artifacts=artifacts)

    explorer = CoverageGuidedExplorer(
        gpca_scenario_space(),
        factory,
        artifacts.code_model,
        seed=0,
        schedule=lambda program, seed: pack.schedule(program, seed, "fig2"),
    )
    report = explorer.explore(episodes=24)
    print("== Coverage-guided exploration ==")
    print(report.summary())


if __name__ == "__main__":
    main()
