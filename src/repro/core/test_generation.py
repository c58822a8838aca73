"""R-test cases: the m-event stimulus schedules R-testing injects.

A test case is a schedule of m-event stimuli to inject into the implemented
system.  The paper's example for REQ1 is::

    {(m-BolusReq, 10 ms), (m-BolusReq, 300 ms), (m-BolusReq, 500 ms), ...}

Schedules are written by compiling a scenario-DSL program
(:meth:`repro.scenarios.ScenarioProgram.compile`, through
:meth:`repro.systems.SystemPack.schedule` for a pack's named and generated
scenarios); this module holds only the values they compile to.  The paper
leaves systematic generation as future work; the coverage module reports how
much of the model each suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .requirements import TimingRequirement


@dataclass(frozen=True)
class Stimulus:
    """One scheduled m-event injection."""

    at_us: int
    variable: str

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("stimulus time must be non-negative")


@dataclass(frozen=True)
class RTestCase:
    """A named stimulus schedule derived from one timing requirement."""

    name: str
    requirement: TimingRequirement
    stimuli: tuple
    description: str = ""

    def __post_init__(self) -> None:
        ordered = list(self.stimuli)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.at_us < earlier.at_us:
                raise ValueError("stimuli must be scheduled in non-decreasing time order")

    @property
    def sample_count(self) -> int:
        return len(self.stimuli)

    @property
    def last_stimulus_us(self) -> int:
        return self.stimuli[-1].at_us if self.stimuli else 0

    @property
    def run_horizon_us(self) -> int:
        """How long the SUT must run to observe the final response or time-out."""
        return self.last_stimulus_us + self.requirement.effective_timeout_us

    def stimulus_times(self) -> List[int]:
        return [stimulus.at_us for stimulus in self.stimuli]
