"""Timing requirements expressed over the four-variable boundary.

The paper expresses REQ1 as a pair of m/c events with a deadline::

    (REQ1-a) {(m-BolusReq, tm1), (c-BolusStart, tc1)}
    (REQ1-b) tc1 - tm1 <= 100 ms

:class:`TimingRequirement` captures exactly that structure — a *stimulus*
specification over an m-variable, a *response* specification over a
c-variable, and a deadline — plus the optional model-level counterpart
(i-event / o-variable) used for verification before implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional

if TYPE_CHECKING:
    from ..model.verification import BoundedResponseRequirement
    from .four_variables import Event


class MatchMode(enum.Enum):
    """How an observed event is matched against an event specification."""

    BECOMES = "becomes"          # value equals the specified target
    BECOMES_POSITIVE = "positive"  # value is truthy / greater than zero
    ANY_CHANGE = "any_change"    # any event on the variable counts


@dataclass(frozen=True)
class EventSpec:
    """Specification of an m-event or c-event of interest."""

    variable: str
    mode: MatchMode = MatchMode.BECOMES
    value: Any = True
    description: str = ""

    def matches(self, event: Event) -> bool:
        """Does ``event`` satisfy this specification?"""
        if event.variable != self.variable:
            return False
        if self.mode is MatchMode.BECOMES:
            return event.value == self.value
        if self.mode is MatchMode.BECOMES_POSITIVE:
            try:
                return bool(event.value) and float(event.value) > 0
            except (TypeError, ValueError):
                return bool(event.value)
        return True

    @classmethod
    def becomes(cls, variable: str, value: Any, description: str = "") -> "EventSpec":
        return cls(variable, MatchMode.BECOMES, value, description)

    @classmethod
    def becomes_positive(cls, variable: str, description: str = "") -> "EventSpec":
        return cls(variable, MatchMode.BECOMES_POSITIVE, True, description)

    @classmethod
    def any_change(cls, variable: str, description: str = "") -> "EventSpec":
        return cls(variable, MatchMode.ANY_CHANGE, None, description)


@dataclass(frozen=True)
class TimingRequirement:
    """A bounded-response timing requirement at the implementation boundary.

    ``deadline_us`` bounds the latency from the stimulus m-event to the
    response c-event.  ``timeout_us`` is how long R-testing waits for the
    response before declaring the sample MAX (response never observed); it
    defaults to five times the deadline.

    The optional ``model_*`` fields give the model-level counterpart of the
    requirement (i-event trigger, o-variable response) so the same requirement
    object drives both Simulink-Design-Verifier-style verification and
    implementation-level R-testing.
    """

    requirement_id: str
    stimulus: EventSpec
    response: EventSpec
    deadline_us: int
    description: str = ""
    timeout_us: Optional[int] = None
    min_stimulus_separation_us: int = 0
    model_trigger_event: Optional[str] = None
    model_response_variable: Optional[str] = None
    model_response_value: Any = None
    model_trigger_state: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline_us <= 0:
            raise ValueError("deadline must be positive")
        if self.timeout_us is not None and self.timeout_us < self.deadline_us:
            raise ValueError("timeout cannot be shorter than the deadline")
        if self.min_stimulus_separation_us < 0:
            raise ValueError("minimum stimulus separation must be non-negative")

    @property
    def effective_timeout_us(self) -> int:
        """The time after which a missing response is reported as MAX."""
        return self.timeout_us if self.timeout_us is not None else self.deadline_us * 5

    @property
    def has_model_counterpart(self) -> bool:
        return self.model_trigger_event is not None and self.model_response_variable is not None

    def to_model_requirement(self) -> BoundedResponseRequirement:
        """The model-level bounded-response requirement (deadline in ticks)."""
        from ..model.verification import BoundedResponseRequirement

        if not self.has_model_counterpart:
            raise ValueError(
                f"requirement {self.requirement_id!r} has no model-level counterpart declared"
            )
        return BoundedResponseRequirement(
            requirement_id=self.requirement_id,
            trigger_event=self.model_trigger_event,
            response_variable=self.model_response_variable,
            response_value=self.model_response_value,
            deadline_ticks=self.deadline_us // 1_000,
            trigger_state=self.model_trigger_state,
            description=self.description,
        )

    def check_latency(self, latency_us: Optional[int]) -> bool:
        """Is one observed latency acceptable?  ``None`` (no response) never is."""
        if latency_us is None:
            return False
        return latency_us <= self.deadline_us


class RequirementSet:
    """A collection of timing requirements keyed by id (e.g. the GPCA safety requirements)."""

    def __init__(self, requirements: Optional[Iterable[TimingRequirement]] = None) -> None:
        self._requirements: Dict[str, TimingRequirement] = {}
        for requirement in requirements or ():
            self.add(requirement)

    def add(self, requirement: TimingRequirement) -> TimingRequirement:
        if requirement.requirement_id in self._requirements:
            raise ValueError(f"duplicate requirement id {requirement.requirement_id!r}")
        self._requirements[requirement.requirement_id] = requirement
        return requirement

    def get(self, requirement_id: str) -> TimingRequirement:
        try:
            return self._requirements[requirement_id]
        except KeyError:
            raise KeyError(f"unknown requirement {requirement_id!r}") from None

    def __contains__(self, requirement_id: str) -> bool:
        return requirement_id in self._requirements

    def __iter__(self) -> Iterator[TimingRequirement]:
        return iter(self._requirements.values())

    def __len__(self) -> int:
        return len(self._requirements)

    def with_model_counterpart(self) -> List[TimingRequirement]:
        """The subset of requirements that can also be verified at model level."""
        return [requirement for requirement in self if requirement.has_model_counterpart]
