"""Benchmark: scenario-generation throughput and exploration episode cost.

The scenario subsystem sits on the campaign hot path — ``repro campaign
--grid scenarios`` samples and compiles a program per grid point, and every
``repro explore`` episode samples, compiles *and executes* one.  This
benchmark measures the two stages separately:

* **generation throughput** — programs sampled + compiled per second from the
  GPCA scenario space (pure Python, no simulation), and the stimulus volume
  that throughput corresponds to;
* **exploration episodes** — full coverage-guided episodes per second against
  implementation scheme 1, i.e. sampling + compilation + simulated execution
  + coverage bookkeeping.

Results are recorded to ``BENCH_scenarios.json`` at the repository root.
Determinism is asserted alongside the timing: two samplers with the same
seed must produce identical programs, and two explorations with the same
seed identical reports.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.campaign import process_cache
from repro.gpca import gpca_scenario_space
from repro.scenarios import CoverageGuidedExplorer, ScenarioSampler
from repro.systems import get_pack

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"

PROGRAM_COUNT = 300
EPISODES = 12
SEED = 20140324  # the paper's conference date


def sample_and_compile(count: int = PROGRAM_COUNT, seed: int = SEED):
    """Sample ``count`` programs and compile each to its stimulus schedule."""
    sampler = ScenarioSampler(gpca_scenario_space(), seed=seed)
    cases = []
    for index in range(count):
        program = sampler.sample()
        cases.append(program.compile(seed=index))
    return cases


def run_exploration(episodes: int = EPISODES, seed: int = SEED):
    """One coverage-guided exploration against scheme 1 (fig2 model)."""
    artifacts = process_cache().artifacts_for_model("fig2")

    def factory():
        return get_pack("gpca").build_system(1, seed=11, artifacts=artifacts)

    explorer = CoverageGuidedExplorer(
        gpca_scenario_space(), factory, artifacts.code_model, seed=seed
    )
    return explorer.explore(episodes)


def test_scenario_generation_throughput_and_record(write_artifact):
    """Measure generation + exploration throughput; record BENCH_scenarios.json."""
    # Generation: sample + compile, determinism checked against a second pass.
    started = time.perf_counter()
    cases = sample_and_compile()
    generation_s = time.perf_counter() - started
    assert cases == sample_and_compile(), "sampling is not seed-deterministic"
    stimulus_count = sum(len(case.stimuli) for case in cases)

    # Exploration: full episodes including simulated execution.
    started = time.perf_counter()
    report = run_exploration()
    exploration_s = time.perf_counter() - started
    assert report.summary() == run_exploration().summary(), (
        "exploration is not seed-deterministic"
    )
    assert report.transition_coverage.ratio > 0.0

    payload = {
        "seed": SEED,
        "generation": {
            "programs": PROGRAM_COUNT,
            "stimuli": stimulus_count,
            "seconds": round(generation_s, 4),
            "programs_per_second": round(PROGRAM_COUNT / generation_s, 1),
            "stimuli_per_second": round(stimulus_count / generation_s, 1),
        },
        "exploration": {
            "episodes": EPISODES,
            "seconds": round(exploration_s, 4),
            "episodes_per_second": round(EPISODES / exploration_s, 2),
            "transition_coverage": report.transition_coverage.ratio,
            "state_coverage": report.state_coverage.ratio,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"sampled+compiled {PROGRAM_COUNT} programs ({stimulus_count} stimuli) "
        f"in {generation_s:.3f} s ({payload['generation']['programs_per_second']} programs/s)",
        f"explored {EPISODES} episodes in {exploration_s:.3f} s "
        f"({payload['exploration']['episodes_per_second']} episodes/s)",
        report.transition_coverage.summary(),
        report.state_coverage.summary(),
    ]
    write_artifact("scenarios.txt", "\n".join(lines))
