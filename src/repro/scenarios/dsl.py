"""The declarative scenario DSL.

A :class:`ScenarioProgram` describes a whole R-testing scenario — not just a
stimulus schedule, but the *shape* of the scenario: per-sample **setup** steps
that steer the system into the state the requirement talks about, the measured
**stimulus pattern** (single event or burst, with a per-cycle offset), and
**teardown** steps that recover the system so the next sample again starts
from a known state.  Inter-sample spacing is either fixed or drawn from a
seeded jitter distribution.

Programs *compile* to plain :class:`repro.core.test_generation.RTestCase`
schedules, so everything downstream — R-testing, M-testing, the campaign
engine — consumes them unchanged.  Jittered spacing draws from the compile
seed's ``"rtest"`` stream by default (:attr:`ScenarioProgram.seed_stream`),
the stream the hand-written GPCA schedules drew from, which is what let
those scenarios be re-expressed as programs without changing a single
pinned test case.

Programs are frozen, hashable and picklable, which is what allows the
campaign grid to use them directly as scenario-axis points, and they have a
canonical dict encoding (:meth:`ScenarioProgram.to_dict`) for JSON artefacts.

See ``docs/architecture.md`` for where the scenario layer sits in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.requirements import TimingRequirement
from ..core.test_generation import RTestCase, Stimulus
from ..platform.kernel.random import RandomSource
from ..platform.kernel.time import ms

#: Roles a scenario step can play within one sample cycle.
ROLE_SETUP = "setup"
ROLE_TEARDOWN = "teardown"


@dataclass(frozen=True)
class StimulusStep:
    """One setup/teardown stimulus within a sample cycle.

    ``offset_us`` is relative to the cycle's base time.  Setup steps use
    monitored variables *different* from the requirement's stimulus variable,
    so they steer the system without ever influencing the R-testing verdict.
    """

    variable: str
    offset_us: int
    role: str = ROLE_SETUP

    def __post_init__(self) -> None:
        if self.offset_us < 0:
            raise ValueError("step offset must be non-negative")
        if self.role not in (ROLE_SETUP, ROLE_TEARDOWN):
            raise ValueError(f"unknown step role {self.role!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"variable": self.variable, "offset_us": self.offset_us, "role": self.role}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StimulusStep":
        return cls(
            variable=payload["variable"],
            offset_us=payload["offset_us"],
            role=payload.get("role", ROLE_SETUP),
        )


@dataclass(frozen=True)
class StimulusPattern:
    """The measured-stimulus pattern of one sample cycle.

    A pattern is ``burst`` injections of the requirement's stimulus variable,
    the first at ``offset_us`` into the cycle, subsequent ones separated by
    ``burst_gap_us``.  The default is the classic single stimulus at the
    cycle base.
    """

    offset_us: int = 0
    burst: int = 1
    burst_gap_us: int = 0

    def __post_init__(self) -> None:
        if self.offset_us < 0:
            raise ValueError("stimulus offset must be non-negative")
        if self.burst < 1:
            raise ValueError("burst size must be at least 1")
        if self.burst > 1 and self.burst_gap_us <= 0:
            raise ValueError("bursts of more than one stimulus need a positive gap")

    @property
    def span_us(self) -> int:
        """Time from the first to the last stimulus of the pattern."""
        return (self.burst - 1) * self.burst_gap_us

    def to_dict(self) -> Dict[str, Any]:
        return {"offset_us": self.offset_us, "burst": self.burst, "burst_gap_us": self.burst_gap_us}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StimulusPattern":
        return cls(
            offset_us=payload.get("offset_us", 0),
            burst=payload.get("burst", 1),
            burst_gap_us=payload.get("burst_gap_us", 0),
        )


@dataclass(frozen=True)
class CycleSpacing:
    """Inter-cycle spacing distribution: fixed, or seeded uniform jitter.

    With ``max_us`` ``None`` the spacing is exactly ``min_us`` every cycle;
    otherwise each gap is drawn uniformly from ``[min_us, max_us]`` using the
    compile seed's named stream (:attr:`ScenarioProgram.seed_stream`).
    """

    min_us: int
    max_us: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_us <= 0:
            raise ValueError("cycle spacing must be positive")
        if self.max_us is not None and self.max_us < self.min_us:
            raise ValueError("maximum spacing cannot be below the minimum")

    @property
    def jittered(self) -> bool:
        return self.max_us is not None and self.max_us > self.min_us

    def draw(self, rng) -> int:
        if self.jittered:
            return rng.randint(self.min_us, self.max_us)
        return self.min_us

    def to_dict(self) -> Dict[str, Any]:
        return {"min_us": self.min_us, "max_us": self.max_us}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CycleSpacing":
        return cls(min_us=payload["min_us"], max_us=payload.get("max_us"))


@dataclass(frozen=True)
class ScenarioProgram:
    """A declarative scenario: setup -> stimulus pattern -> teardown, per cycle.

    Each of the ``samples`` cycles emits the setup steps, the measured
    stimulus pattern and the teardown steps at their offsets from the cycle
    base; cycle bases advance by the (possibly jittered) spacing.  The
    program validates at construction time that consecutive measured stimuli
    can never be closer than the requirement's minimum stimulus separation —
    a generated schedule is correct by construction, never by luck.
    """

    name: str
    requirement: TimingRequirement
    spacing: CycleSpacing
    samples: int = 10
    start_offset_us: int = ms(10)
    setup: Tuple[StimulusStep, ...] = ()
    stimulus: StimulusPattern = field(default_factory=StimulusPattern)
    teardown: Tuple[StimulusStep, ...] = ()
    description: str = ""
    #: Named random stream the jittered spacing draws from.  The default is
    #: the stream the hand-written GPCA schedules drew from, which is what
    #: keeps their compiled schedules byte-identical.
    seed_stream: str = "rtest"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("program needs a name")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")
        if self.start_offset_us < 0:
            raise ValueError("start offset must be non-negative")
        minimum = self.requirement.min_stimulus_separation_us
        if self.stimulus.burst > 1 and self.stimulus.burst_gap_us < minimum:
            raise ValueError(
                "burst gap is below the requirement's minimum stimulus separation "
                f"({self.stimulus.burst_gap_us} < {minimum})"
            )
        # Checked even for single-sample programs, so whether a program is
        # valid never depends on its sample count (``with_samples``).
        if self.spacing.min_us - self.stimulus.span_us < minimum:
            raise ValueError(
                "cycle spacing minus the burst span is below the requirement's "
                f"minimum stimulus separation ({self.spacing.min_us} - "
                f"{self.stimulus.span_us} < {minimum})"
            )
        for step in (*self.setup, *self.teardown):
            if step.variable == self.requirement.stimulus.variable:
                raise ValueError(
                    f"step on {step.variable!r} would collide with the measured "
                    "stimulus variable; setup/teardown must use other variables"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stimuli_per_cycle(self) -> int:
        return len(self.setup) + self.stimulus.burst + len(self.teardown)

    def with_samples(self, samples: int) -> "ScenarioProgram":
        """A copy of this program with a different sample count."""
        return replace(self, samples=samples)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, seed: int = 0) -> RTestCase:
        """Lower this program to a concrete :class:`RTestCase` schedule.

        ``seed`` only matters when the spacing is jittered; fixed-spacing
        programs compile to the same schedule for every seed.
        """
        rng = RandomSource(seed).stream(self.seed_stream)
        stimuli: List[Stimulus] = []
        base = self.start_offset_us
        for index in range(self.samples):
            if index:
                base += self.spacing.draw(rng)
            for step in self.setup:
                stimuli.append(Stimulus(base + step.offset_us, step.variable))
            for burst_index in range(self.stimulus.burst):
                stimuli.append(
                    Stimulus(
                        base + self.stimulus.offset_us + burst_index * self.stimulus.burst_gap_us,
                        self.requirement.stimulus.variable,
                    )
                )
            for step in self.teardown:
                stimuli.append(Stimulus(base + step.offset_us, step.variable))
        stimuli.sort(key=lambda stimulus: stimulus.at_us)
        return RTestCase(
            name=self.name,
            requirement=self.requirement,
            stimuli=tuple(stimuli),
            description=self.description
            or (
                f"{len(stimuli)} stimuli on {self.requirement.stimulus.variable} "
                f"for {self.requirement.requirement_id}"
            ),
        )

    # ------------------------------------------------------------------
    # Canonical encoding
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable rendering (round-trips via :meth:`from_dict`)."""
        from ..core.serialization import requirement_to_dict

        return {
            "name": self.name,
            "requirement": requirement_to_dict(self.requirement),
            "spacing": self.spacing.to_dict(),
            "samples": self.samples,
            "start_offset_us": self.start_offset_us,
            "setup": [step.to_dict() for step in self.setup],
            "stimulus": self.stimulus.to_dict(),
            "teardown": [step.to_dict() for step in self.teardown],
            "description": self.description,
            "seed_stream": self.seed_stream,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioProgram":
        from ..core.serialization import requirement_from_dict

        return cls(
            name=payload["name"],
            requirement=requirement_from_dict(payload["requirement"]),
            spacing=CycleSpacing.from_dict(payload["spacing"]),
            samples=payload["samples"],
            start_offset_us=payload["start_offset_us"],
            setup=tuple(StimulusStep.from_dict(step) for step in payload.get("setup", ())),
            stimulus=StimulusPattern.from_dict(payload.get("stimulus", {})),
            teardown=tuple(
                StimulusStep.from_dict(step) for step in payload.get("teardown", ())
            ),
            description=payload.get("description", ""),
            seed_stream=payload.get("seed_stream", "rtest"),
        )
