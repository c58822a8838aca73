"""Coverage-guided hunting of surviving mutants.

The kill matrix scores mutants against a system pack's *fixed* requirement
scenarios.  Mutants that survive those are exactly the interesting ones — a
behavioural defect the stock test suite cannot see.  The
:class:`SurvivorHunter` turns the scenario-generation subsystem
(:mod:`repro.scenarios`) on them: the coverage-guided exploration loop of
``repro explore``, re-aimed from "cover new transitions" to "distinguish the
mutant from the original".

Each episode:

1. picks one surviving mutant (round-robin, so every survivor gets pressure);
2. picks a scenario program — a seeded epsilon-greedy choice between a fresh
   draw from the space and a mutation of an archived *killer* program (a
   program that already killed some mutant distinguishes behaviour well and
   is a good parent);
3. compiles the program once into its schedule for the hunted model and
   executes it against a fresh **original** system and a fresh **mutant**
   system built with the same seeds — a differential R-test;
4. compares the two runs at the **m/c boundary** — the per-sample verdict
   vector plus the full c-event sequence (variable, value, timestamp).  Any
   difference kills the mutant, and the program is archived as a killer.

The c-event sequence is a legitimately black-box oracle: it observes exactly
the controlled-variable changes R-testing observes, nothing from inside the
implementation.  Because both systems are built from the same seeds, the two
runs are identical *by construction* until the mutation changes model
behaviour — so any divergence (a missing actuation, an extra one, a shifted
timestamp) is attributable to the mutant alone, and a genuinely equivalent
mutant can never be killed by noise.

Everything draws from named streams of one seed, so a hunt is a pure function
of ``(space, mutants, scheme, seed)`` and replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign.cache import process_cache
from ..core.four_variables import EventKind, Trace
from ..core.r_testing import RTestReport, execute_r_test
from ..platform.kernel.random import RandomSource
from ..systems import DEFAULT_SYSTEM, get_pack
from ..scenarios.dsl import ScenarioProgram
from ..scenarios.generator import ScenarioSampler, ScenarioSpace
from .mutants import MutantSpec

#: Probability of mutating an archived killer program instead of sampling fresh.
EXPLOIT_PROBABILITY = 0.5

#: After this many consecutive episodes without a kill, fresh draws are forced
#: to be structurally rich (setup + teardown steps): surviving mutants sit on
#: guarded multi-variable paths that retimed single-stimulus programs never
#: reach — the same plateau rule the coverage-guided explorer uses.
DRY_STREAK_RICH_THRESHOLD = 3


def mc_signature(report: RTestReport) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, object, int], ...]]:
    """The m/c-boundary observables of one R-test execution.

    A pair of (per-sample verdict vector, c-event sequence).  This is what a
    black-box R-tester can see — monitored and controlled variables only —
    and it is the differential kill oracle of the hunter.
    """
    verdicts = tuple(sample.verdict.value for sample in report.samples)
    trace: Optional[Trace] = report.trace
    c_events: Tuple[Tuple[str, object, int], ...] = ()
    if trace is not None:
        c_events = tuple(
            (event.variable, event.value, event.timestamp_us)
            for event in trace.select(kind=EventKind.C)
        )
    return verdicts, c_events


@dataclass(frozen=True)
class HuntEpisode:
    """The outcome of one differential-testing episode."""

    index: int
    mutant_id: str
    program: ScenarioProgram
    source: str
    original_verdicts: Tuple[str, ...]
    mutant_verdicts: Tuple[str, ...]
    #: Number of c-events observed on each side (first divergence kills).
    original_c_events: int = 0
    mutant_c_events: int = 0
    killed: bool = False

    def summary(self) -> str:
        outcome = "KILLED" if self.killed else "survived"
        return (
            f"episode {self.index:>2} [{self.source:<8}] {self.mutant_id:<38} "
            f"{self.program.name:<24} {outcome}  "
            f"verdicts {'/'.join(self.original_verdicts)} vs "
            f"{'/'.join(self.mutant_verdicts)}, "
            f"c-events {self.original_c_events} vs {self.mutant_c_events}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "mutant": self.mutant_id,
            "program": self.program.name,
            "source": self.source,
            "killed": self.killed,
            "original_verdicts": list(self.original_verdicts),
            "mutant_verdicts": list(self.mutant_verdicts),
            "original_c_events": self.original_c_events,
            "mutant_c_events": self.mutant_c_events,
        }


@dataclass
class HuntReport:
    """Aggregate of one survivor hunt."""

    seed: int
    survivors: List[str]
    episodes: List[HuntEpisode] = field(default_factory=list)
    #: mutant id -> name of the program that killed it.
    kills: Dict[str, str] = field(default_factory=dict)

    @property
    def remaining(self) -> List[str]:
        return [mutant_id for mutant_id in self.survivors if mutant_id not in self.kills]

    def summary(self) -> str:
        lines = [
            f"survivor hunt (seed {self.seed}): {len(self.survivors)} surviving "
            f"mutant(s), {len(self.episodes)} episodes"
        ]
        lines.extend(episode.summary() for episode in self.episodes)
        lines.append(
            f"hunted down {len(self.kills)}/{len(self.survivors)}"
            + (f"; still surviving: {', '.join(self.remaining)}" if self.remaining else "")
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "survivors": list(self.survivors),
            "episodes": [episode.to_dict() for episode in self.episodes],
            "kills": dict(self.kills),
            "remaining": self.remaining,
        }


class SurvivorHunter:
    """Differential, coverage-guided search for mutant-killing scenarios."""

    def __init__(
        self,
        space: ScenarioSpace,
        mutants: Sequence[MutantSpec],
        *,
        scheme: int = 2,
        model: Optional[str] = None,
        system: str = DEFAULT_SYSTEM,
        sut_seed: int = 11,
        seed: int = 0,
        samples: Optional[int] = 3,
    ) -> None:
        self.space = space
        self.mutants = {mutant.mutant_id: mutant for mutant in mutants}
        self.scheme = scheme
        self.system = system
        self.model = get_pack(system).default_model if model is None else model
        self.sut_seed = sut_seed
        self.seed = seed
        self.samples = samples
        self.sampler = ScenarioSampler(space, seed=seed)
        self._source = RandomSource(seed)
        #: Killer programs keyed by name -> [program, kills]; a program that
        #: kills repeatedly gains selection weight (insertion-ordered, so
        #: archive iteration stays deterministic).
        self._archive: Dict[str, List] = {}
        #: Consecutive episodes without a kill (plateau detector).
        self._dry_streak = 0

    # ------------------------------------------------------------------
    def hunt(self, episodes: int = 12) -> HuntReport:
        """Run up to ``episodes`` differential episodes (stops when none survive)."""
        report = HuntReport(seed=self.seed, survivors=sorted(self.mutants))
        for index in range(episodes):
            remaining = report.remaining
            if not remaining:
                break
            mutant_id = remaining[index % len(remaining)]
            episode = self._run_episode(index, self.mutants[mutant_id])
            report.episodes.append(episode)
            if episode.killed:
                report.kills[mutant_id] = episode.program.name
                entry = self._archive.setdefault(episode.program.name, [episode.program, 0])
                entry[1] += 1
                self._dry_streak = 0
            else:
                self._dry_streak += 1
        return report

    # ------------------------------------------------------------------
    def _run_episode(self, index: int, mutant: MutantSpec) -> HuntEpisode:
        rng = self._source.stream(f"episode:{index}")
        program, source = self._pick_program(rng)
        if self.samples is not None:
            program = program.with_samples(self.samples)
        compile_seed = self._source.fork(f"compile:{index}").seed
        test_case = get_pack(self.system).schedule(program, compile_seed, self.model)

        original = execute_r_test(self._factory(None), test_case)
        mutated = execute_r_test(self._factory(mutant), test_case)
        original_signature = mc_signature(original)
        mutant_signature = mc_signature(mutated)
        return HuntEpisode(
            index=index,
            mutant_id=mutant.mutant_id,
            program=program,
            source=source,
            original_verdicts=original_signature[0],
            mutant_verdicts=mutant_signature[0],
            original_c_events=len(original_signature[1]),
            mutant_c_events=len(mutant_signature[1]),
            killed=original_signature != mutant_signature,
        )

    def _pick_program(self, rng) -> Tuple[ScenarioProgram, str]:
        plateaued = self._dry_streak >= DRY_STREAK_RICH_THRESHOLD
        if self._archive and not plateaued and rng.random() < EXPLOIT_PROBABILITY:
            programs = [entry[0] for entry in self._archive.values()]
            weights = [entry[1] for entry in self._archive.values()]
            parent = rng.choices(programs, weights=weights, k=1)[0]
            return self.sampler.mutate(parent), "mutation"
        if plateaued:
            return self.sampler.sample(min_setup_steps=1, min_teardown_steps=1), "rich"
        return self.sampler.sample(), "fresh"

    def _factory(self, mutant: Optional[MutantSpec]):
        cache = process_cache()
        if mutant is None:
            artifacts = cache.artifacts_for_model(self.model)
        else:
            artifacts = cache.artifacts_for_mutant(self.model, mutant)
        pack = get_pack(self.system)
        scheme = self.scheme
        model = self.model
        sut_seed = self.sut_seed

        def factory():
            return pack.build_system(scheme, model=model, seed=sut_seed, artifacts=artifacts)

        return factory
