"""Coverage-guided scenario exploration.

The explorer closes the loop the paper's conclusion leaves as future work —
"test coverage and test sufficiency from which test cases can be
systematically generated".  Each *episode*:

1. picks a scenario program — either a fresh draw from the space, or a
   mutation of an archived program that previously uncovered new behaviour
   (seeded epsilon-greedy choice);
2. compiles it to an :class:`RTestCase` — through the caller's ``schedule``
   step, which applies a model's stimulus shift — and executes it against a
   fresh system from the factory (:func:`repro.core.r_testing.execute_r_test`);
3. feeds the executed trace into :class:`repro.core.coverage`'s transition
   and state coverage, and archives the program if it covered generated
   transitions no earlier episode had reached.

The bias is what makes the loop *guided*: programs that reach unexplored
model behaviour are kept and varied, programs that retread known ground are
discarded.  Everything — sampling, mutation, archive selection — draws from
named streams of one :class:`RandomSource` seed, so a whole exploration is a
pure function of ``(space, factory, schedule, seed)`` and can be replayed
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..codegen.ir import CodeModel
from ..core.coverage import StateCoverage, TransitionCoverage
from ..core.r_testing import RTestReport, execute_r_test
from ..core.sut import SutFactory
from ..core.test_generation import RTestCase
from ..platform.kernel.random import RandomSource
from .dsl import ScenarioProgram
from .generator import ScenarioSampler, ScenarioSpace

#: Probability of mutating an archived productive program instead of
#: sampling a fresh one (when the archive is non-empty).
EXPLOIT_PROBABILITY = 0.5

#: After this many consecutive episodes without new coverage, exploitation
#: is suspended and every pick is a fresh draw until coverage grows again —
#: mutating a long-exhausted archive is how exploration plateaus.
DRY_STREAK_FRESH_THRESHOLD = 4


@dataclass(frozen=True)
class Episode:
    """The outcome of one exploration episode."""

    index: int
    program: ScenarioProgram
    #: How the program was picked: "fresh" (new sample), "mutation" (varied
    #: archive program) or "rich" (plateau-forced structurally-rich sample).
    source: str
    passes: int
    failures: int
    timeouts: int
    #: Generated transitions this episode covered for the first time.
    new_transitions: List[str]
    transition_ratio_after: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "program": self.program.name,
            "requirement": self.program.requirement.requirement_id,
            "source": self.source,
            "samples": self.passes + self.failures + self.timeouts,
            "passes": self.passes,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "new_transitions": list(self.new_transitions),
            "transition_ratio_after": self.transition_ratio_after,
        }

    def summary(self) -> str:
        gained = ", ".join(self.new_transitions) or "-"
        return (
            f"episode {self.index:>2} [{self.source:<8}] {self.program.name:<24} "
            f"{self.program.requirement.requirement_id:<5} "
            f"pass/fail/MAX {self.passes}/{self.failures}/{self.timeouts}  "
            f"new: {gained}"
        )


@dataclass
class ExplorationReport:
    """Aggregate of one coverage-guided exploration."""

    seed: int
    episodes: List[Episode] = field(default_factory=list)
    transition_coverage: Optional[TransitionCoverage] = None
    state_coverage: Optional[StateCoverage] = None

    def summary(self) -> str:
        lines = [f"coverage-guided exploration (seed {self.seed}, {len(self.episodes)} episodes)"]
        lines.extend(episode.summary() for episode in self.episodes)
        if self.transition_coverage is not None:
            lines.append(self.transition_coverage.summary())
        if self.state_coverage is not None:
            lines.append(self.state_coverage.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "seed": self.seed,
            "episodes": [episode.to_dict() for episode in self.episodes],
        }
        if self.transition_coverage is not None:
            payload["transition_coverage"] = {
                "covered": sorted(self.transition_coverage.covered),
                "uncovered": self.transition_coverage.uncovered,
                "ratio": self.transition_coverage.ratio,
            }
        if self.state_coverage is not None:
            payload["state_coverage"] = {
                "covered": sorted(self.state_coverage.covered),
                "uncovered": self.state_coverage.uncovered,
                "ratio": self.state_coverage.ratio,
            }
        return payload


class CoverageGuidedExplorer:
    """Runs seeded exploration episodes against one implemented system kind."""

    def __init__(
        self,
        space: ScenarioSpace,
        sut_factory: SutFactory,
        code_model: CodeModel,
        *,
        schedule: Callable[[ScenarioProgram, int], RTestCase],
        seed: int = 0,
    ) -> None:
        self.space = space
        self.sut_factory = sut_factory
        self.seed = seed
        #: ``(program, compile seed) -> RTestCase``: ``SystemPack.schedule``
        #: bound to the model the factory's systems run.
        self.schedule = schedule
        self.sampler = ScenarioSampler(space, seed=seed)
        self.transition_coverage = TransitionCoverage.for_code_model(code_model)
        self.state_coverage = StateCoverage.for_code_model(code_model)
        self._source = RandomSource(seed)
        #: Productive programs with the number of transitions they uncovered.
        self._archive: List[tuple] = []
        #: Consecutive episodes without coverage gain (plateau detector).
        self._dry_streak = 0

    # ------------------------------------------------------------------
    def explore(self, episodes: int = 8) -> ExplorationReport:
        """Run ``episodes`` exploration episodes and aggregate the report."""
        report = ExplorationReport(seed=self.seed)
        for index in range(episodes):
            report.episodes.append(self._run_episode(index))
        report.transition_coverage = self.transition_coverage
        report.state_coverage = self.state_coverage
        return report

    # ------------------------------------------------------------------
    def _run_episode(self, index: int) -> Episode:
        rng = self._source.stream(f"episode:{index}")
        program, source = self._pick_program(rng)
        compile_seed = self._source.fork(f"compile:{index}").seed
        test_case = self.schedule(program, compile_seed)
        r_report = execute_r_test(self.sut_factory, test_case)

        before = set(self.transition_coverage.covered)
        if r_report.trace is not None:
            self.transition_coverage.add_trace(r_report.trace)
            self.state_coverage.add_trace(r_report.trace)
        gained = sorted(self.transition_coverage.covered - before)
        if gained:
            self._archive.append((program, len(gained)))
            self._dry_streak = 0
        else:
            self._dry_streak += 1
        return Episode(
            index=index,
            program=program,
            source=source,
            passes=self._count(r_report, "pass"),
            failures=self._count(r_report, "fail"),
            timeouts=r_report.timeout_count,
            new_transitions=gained,
            transition_ratio_after=self.transition_coverage.ratio,
        )

    def _pick_program(self, rng) -> tuple:
        """Epsilon-greedy choice: mutate a productive program, or go fresh.

        During a coverage plateau (no gain for
        :data:`DRY_STREAK_FRESH_THRESHOLD` episodes) exploitation is
        suspended — the archive's neighbourhood is exhausted — and fresh
        draws are forced to be structurally *rich* (at least one setup and
        one teardown step): the transitions still uncovered at that point
        are the guarded ones that only multi-variable scenarios reach.
        """
        plateaued = self._dry_streak >= DRY_STREAK_FRESH_THRESHOLD
        if self._archive and not plateaued and rng.random() < EXPLOIT_PROBABILITY:
            programs = [entry[0] for entry in self._archive]
            weights = [entry[1] for entry in self._archive]
            parent = rng.choices(programs, weights=weights, k=1)[0]
            return self.sampler.mutate(parent), "mutation"
        if plateaued:
            return self.sampler.sample(min_setup_steps=1, min_teardown_steps=1), "rich"
        return self.sampler.sample(), "fresh"

    @staticmethod
    def _count(report: RTestReport, verdict: str) -> int:
        return sum(1 for sample in report.samples if sample.verdict.value == verdict)
