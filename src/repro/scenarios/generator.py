"""Seeded random sampling and mutation of scenario programs.

A :class:`ScenarioSpace` bounds the universe of programs a case study admits:
which requirements can be targeted, which monitored variables may appear as
setup/teardown steps, and the numeric ranges of every knob (sample counts,
spacing, jitter, bursts, offsets).  A :class:`ScenarioSampler` draws programs
from that space — and *mutates* existing programs one knob at a time — using
named random streams derived from a single seed, so program ``i`` of a
sampler is a pure function of ``(space, seed, i)`` no matter how many draws
earlier programs consumed.

Sampling alone is blind; the exploration loop in
:mod:`repro.scenarios.explore` feeds executed-trace coverage back into the
sampler's choices (keep-and-mutate what uncovered new behaviour, resample
what didn't).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Collection, Tuple

from ..core.requirements import TimingRequirement
from ..platform.kernel.random import RandomSource
from ..platform.kernel.time import ms, seconds
from .dsl import ROLE_SETUP, ROLE_TEARDOWN, CycleSpacing, ScenarioProgram, StimulusPattern, StimulusStep

#: An inclusive ``(low, high)`` integer range.
Range = Tuple[int, int]

#: Probability of mutating an archived program instead of sampling a fresh one
#: (when the archive is non-empty and the caller has not plateaued).
EXPLOIT_PROBABILITY = 0.5


@dataclass(frozen=True)
class ScenarioSpace:
    """The bounded universe of scenario programs for one case study."""

    requirements: Tuple[TimingRequirement, ...]
    #: Monitored variables that may appear as per-cycle setup steps.
    setup_variables: Tuple[str, ...]
    #: Monitored variables that may appear as per-cycle teardown steps.
    teardown_variables: Tuple[str, ...]
    samples: Range = (2, 5)
    start_offset_us: Range = (ms(100), ms(900))
    #: Baseline inter-cycle spacing range (clamped per requirement).
    cycle_spacing_us: Range = (ms(800), seconds(8))
    #: Extra jitter width added on top of the spacing minimum when jittered.
    jitter_width_us: Range = (ms(100), ms(1500))
    jitter_probability: float = 0.5
    max_setup_steps: int = 2
    max_teardown_steps: int = 2
    #: Offset of the measured stimulus when the cycle has setup steps.
    measured_offset_us: Range = (ms(300), seconds(2))
    #: Gap between setup steps and before the measured stimulus.
    setup_lead_us: Range = (ms(50), ms(600))
    #: Delay of teardown steps after the measured stimulus.
    teardown_lag_us: Range = (ms(500), seconds(3))
    max_burst: int = 2
    burst_gap_us: Range = (ms(300), seconds(1))

    def __post_init__(self) -> None:
        if not self.requirements:
            raise ValueError("scenario space needs at least one requirement")
        for low, high in (
            self.samples,
            self.start_offset_us,
            self.cycle_spacing_us,
            self.jitter_width_us,
            self.measured_offset_us,
            self.setup_lead_us,
            self.teardown_lag_us,
            self.burst_gap_us,
        ):
            if low > high:
                raise ValueError(f"range ({low}, {high}) is inverted")
        if not 0.0 <= self.jitter_probability <= 1.0:
            raise ValueError("jitter probability must be in [0, 1]")
        if self.max_burst < 1:
            raise ValueError("max burst must be at least 1")


class ScenarioSampler:
    """Draws (and mutates) scenario programs from a space, deterministically.

    Every program draws from its own named stream
    (``RandomSource(seed).stream(f"program:{index}")``), so the ``index``-th
    sampled program depends only on the space, the seed and the index.
    """

    def __init__(self, space: ScenarioSpace, seed: int = 0) -> None:
        self.space = space
        self._source = RandomSource(seed)
        self._counter = 0

    # ------------------------------------------------------------------
    def pick(
        self, rng: Any, archive: Collection[Tuple[ScenarioProgram, int]], plateaued: bool
    ) -> Tuple[ScenarioProgram, str]:
        """Epsilon-greedy choice: mutate an archived program, or draw a fresh one.

        ``archive`` holds ``(program, weight)`` pairs.  Unless the caller has
        plateaued, a non-empty archive is exploited with probability
        :data:`EXPLOIT_PROBABILITY` (``rng`` rolls it, then picks the parent
        by weight).  During a plateau the archive's neighbourhood is
        exhausted, so the draw is forced to be structurally *rich* (at least
        one setup and one teardown step): what remains uncovered is guarded
        behaviour that only multi-variable scenarios reach.  Returns the
        program and how it was picked: "mutation", "rich" or "fresh".
        """
        if archive and not plateaued and rng.random() < EXPLOIT_PROBABILITY:
            programs = [program for program, _ in archive]
            weights = [weight for _, weight in archive]
            parent = rng.choices(programs, weights=weights, k=1)[0]
            return self.mutate(parent), "mutation"
        if plateaued:
            return self.sample(min_setup_steps=1, min_teardown_steps=1), "rich"
        return self.sample(), "fresh"

    def sample(
        self, *, min_setup_steps: int = 0, min_teardown_steps: int = 0
    ) -> ScenarioProgram:
        """Draw the next fresh program from the space.

        ``min_setup_steps`` / ``min_teardown_steps`` floor the structural
        richness of the draw (clamped to the space's caps and pools) — the
        exploration loop raises them during coverage plateaus, because
        reaching guarded model behaviour takes multi-variable scenarios, not
        retimed single-stimulus ones.
        """
        index = self._counter
        self._counter += 1
        rng = self._source.stream(f"program:{index}")
        space = self.space

        requirement = rng.choice(list(space.requirements))
        samples = rng.randint(*space.samples)
        start_offset = rng.randint(*space.start_offset_us)

        setup_pool = [
            variable
            for variable in space.setup_variables
            if variable != requirement.stimulus.variable
        ]
        setup_cap = min(space.max_setup_steps, len(setup_pool))
        setup_count = rng.randint(min(min_setup_steps, setup_cap), setup_cap)
        setup: Tuple[StimulusStep, ...] = ()
        measured_offset = 0
        if setup_count:
            measured_offset = rng.randint(*space.measured_offset_us)
            offsets = sorted(
                rng.randint(0, max(0, measured_offset - rng.randint(*space.setup_lead_us)))
                for _ in range(setup_count)
            )
            variables = rng.sample(setup_pool, setup_count)
            setup = tuple(
                StimulusStep(variable, offset, ROLE_SETUP)
                for variable, offset in zip(variables, offsets)
            )

        burst = rng.randint(1, space.max_burst)
        burst_gap = 0
        if burst > 1:
            burst_gap = max(
                requirement.min_stimulus_separation_us, rng.randint(*space.burst_gap_us)
            )
        pattern = StimulusPattern(offset_us=measured_offset, burst=burst, burst_gap_us=burst_gap)

        teardown_pool = [
            variable
            for variable in space.teardown_variables
            if variable != requirement.stimulus.variable
        ]
        teardown_cap = min(space.max_teardown_steps, len(teardown_pool))
        teardown_count = rng.randint(min(min_teardown_steps, teardown_cap), teardown_cap)
        teardown: Tuple[StimulusStep, ...] = ()
        if teardown_count:
            lags = sorted(rng.randint(*space.teardown_lag_us) for _ in range(teardown_count))
            variables = rng.sample(teardown_pool, teardown_count)
            teardown = tuple(
                StimulusStep(variable, measured_offset + pattern.span_us + lag, ROLE_TEARDOWN)
                for variable, lag in zip(variables, lags)
            )

        spacing = self._draw_spacing(rng, requirement, pattern, (*setup, *teardown))
        return ScenarioProgram(
            name=f"gen-{requirement.requirement_id.lower()}-{index:03d}",
            requirement=requirement,
            spacing=spacing,
            samples=samples,
            start_offset_us=start_offset,
            setup=setup,
            stimulus=pattern,
            teardown=teardown,
            description=(
                f"generated scenario #{index} targeting {requirement.requirement_id}"
            ),
        )

    def mutate(self, program: ScenarioProgram) -> ScenarioProgram:
        """Vary one knob of an existing program (same seeded-stream scheme).

        Structural mutations — adding or dropping a setup step — are what let
        the exploration loop escape coverage plateaus: reaching a guarded
        transition usually needs a *different stimulus combination*, not just
        different timing.
        """
        index = self._counter
        self._counter += 1
        rng = self._source.stream(f"mutate:{index}")
        space = self.space
        setup_pool = [
            variable
            for variable in space.setup_variables
            if variable != program.requirement.stimulus.variable
            and variable not in {step.variable for step in program.setup}
        ]
        choices = ["samples", "start", "spacing"]
        if program.setup:
            choices.append("drop-setup")
        if setup_pool and len(program.setup) < space.max_setup_steps + 2:
            # Twice so structural exploration wins ties against timing tweaks.
            choices.extend(["add-setup", "add-setup"])
        mutation = rng.choice(choices)
        mutated = program
        if mutation == "samples":
            mutated = replace(program, samples=rng.randint(*space.samples))
        elif mutation == "start":
            mutated = replace(program, start_offset_us=rng.randint(*space.start_offset_us))
        elif mutation == "spacing":
            mutated = replace(
                program,
                spacing=self._draw_spacing(
                    rng,
                    program.requirement,
                    program.stimulus,
                    (*program.setup, *program.teardown),
                ),
            )
        elif mutation == "drop-setup":
            mutated = replace(program, setup=program.setup[:-1])
        elif mutation == "add-setup":
            offset_ceiling = max(0, program.spacing.min_us - ms(200))
            step = StimulusStep(
                rng.choice(setup_pool), rng.randint(0, offset_ceiling), ROLE_SETUP
            )
            setup = tuple(
                sorted((*program.setup, step), key=lambda entry: entry.offset_us)
            )
            mutated = replace(program, setup=setup)
        # Name from the base program, not the parent: chained mutation of
        # archived programs must not accrete one suffix per generation.
        base_name = program.name.split("~", 1)[0]
        return replace(mutated, name=f"{base_name}~m{index:03d}")

    # ------------------------------------------------------------------
    def _draw_spacing(
        self,
        rng,
        requirement: TimingRequirement,
        pattern: StimulusPattern,
        steps: Tuple[StimulusStep, ...],
    ) -> CycleSpacing:
        """Draw an inter-cycle spacing that keeps the program valid.

        The floor honours (a) the requirement's minimum measured-stimulus
        separation across cycle boundaries and (b) the last event of the
        cycle — measured burst, setup or teardown step, whichever is latest —
        so consecutive cycles never interleave.
        """
        space = self.space
        cycle_end = pattern.offset_us + pattern.span_us
        if steps:
            cycle_end = max(cycle_end, max(step.offset_us for step in steps))
        floor = max(
            space.cycle_spacing_us[0],
            pattern.span_us + requirement.min_stimulus_separation_us,
            cycle_end + ms(100),
        )
        minimum = rng.randint(floor, max(floor, space.cycle_spacing_us[1]))
        if rng.random() < space.jitter_probability:
            return CycleSpacing(minimum, minimum + rng.randint(*space.jitter_width_us))
        return CycleSpacing(minimum)
