"""Model-level verification of bounded-response timing requirements.

The paper verifies REQ1 on the Stateflow model with Simulink Design Verifier
("the value of o-MotorState changes from zero to one within 100 ms when
i-BolusReq is triggered while the system is in Idle state").  This module is
the substitute: an explicit-state bounded checker for *bounded response*
properties of the form

    whenever event ``e`` is accepted, output ``v`` takes value ``x``
    within ``d`` model ticks.

Nondeterminism handled by the checker:

* ``before(n)`` transitions may fire at any tick in ``[0, n]`` after their
  source state is entered (they are forced at the bound);
* the trigger event may arrive in *any* reachable stable state in which it is
  accepted (unless the requirement pins a specific state).

The checker explores every admissible resolution of that nondeterminism up to
the deadline and reports the worst-case response time plus a witness path for
violations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple

from .statechart import Statechart, Transition


@dataclass(frozen=True)
class BoundedResponseRequirement:
    """A model-level bounded response requirement.

    ``trigger_event`` is an input event; the response is observed when
    ``response_variable`` is assigned ``response_value``.  ``deadline_ticks``
    is measured on the model clock (1 ms per tick).  ``trigger_state``
    optionally restricts the requirement to triggers accepted in one state
    (REQ1 names the Idle state).
    """

    requirement_id: str
    trigger_event: str
    response_variable: str
    response_value: Any
    deadline_ticks: int
    trigger_state: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.deadline_ticks < 0:
            raise ValueError("deadline must be non-negative")


@dataclass
class VerificationResult:
    """Outcome of checking one requirement against the model."""

    requirement: BoundedResponseRequirement
    passed: bool
    worst_case_ticks: Optional[int]
    explored_configurations: int
    trigger_states: List[str] = field(default_factory=list)
    witness: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        worst = "unbounded" if self.worst_case_ticks is None else f"{self.worst_case_ticks} ticks"
        return (
            f"[{verdict}] {self.requirement.requirement_id}: worst-case response {worst} "
            f"(deadline {self.requirement.deadline_ticks} ticks, "
            f"{self.explored_configurations} configurations explored)"
        )


# ----------------------------------------------------------------------
# Reachability of stable states
# ----------------------------------------------------------------------
def reachable_states(chart: Statechart) -> List[str]:
    """States reachable from the initial state treating every transition as possible."""
    chart.check_references()
    seen: Set[str] = {chart.initial_state}
    frontier = deque([chart.initial_state])
    while frontier:
        state = frontier.popleft()
        for transition in chart.transitions_from(state):
            if transition.target not in seen:
                seen.add(transition.target)
                frontier.append(transition.target)
    return [name for name in chart.state_names if name in seen]


# ----------------------------------------------------------------------
# Bounded response checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Config:
    """One explored configuration: the state, its local clock, and elapsed time
    since the trigger event."""

    state: str
    elapsed_in_state: int
    since_trigger: int


class BoundedResponseChecker:
    """Explicit-state checker for :class:`BoundedResponseRequirement`."""

    def __init__(self, chart: Statechart) -> None:
        chart.check_references()
        self.chart = chart

    # ------------------------------------------------------------------
    def check(self, requirement: BoundedResponseRequirement) -> VerificationResult:
        trigger_states = self._trigger_states(requirement)
        worst_case = 0
        explored = 0
        for state in trigger_states:
            outcome = self._check_from(state, requirement)
            explored += outcome[1]
            if outcome[0] is None:
                return VerificationResult(
                    requirement=requirement,
                    passed=False,
                    worst_case_ticks=None,
                    explored_configurations=explored,
                    trigger_states=trigger_states,
                    witness=outcome[2],
                )
            worst_case = max(worst_case, outcome[0])
        passed = worst_case <= requirement.deadline_ticks and bool(trigger_states)
        return VerificationResult(
            requirement=requirement,
            passed=passed,
            worst_case_ticks=worst_case if trigger_states else None,
            explored_configurations=explored,
            trigger_states=trigger_states,
            witness=[] if passed else [f"worst-case response {worst_case} ticks"],
        )

    # ------------------------------------------------------------------
    def _trigger_states(self, requirement: BoundedResponseRequirement) -> List[str]:
        """States in which the trigger event is accepted (restricted if pinned)."""
        states = []
        for state in reachable_states(self.chart):
            if requirement.trigger_state is not None and state != requirement.trigger_state:
                continue
            accepts = any(
                transition.event == requirement.trigger_event
                for transition in self.chart.transitions_from(state)
            )
            if accepts:
                states.append(state)
        return states

    def _check_from(
        self, trigger_state: str, requirement: BoundedResponseRequirement
    ) -> Tuple[Optional[int], int, List[str]]:
        """Worst-case response from one trigger state.

        Returns ``(worst_case_ticks, explored, witness)``; ``worst_case_ticks``
        is ``None`` when some path exceeds the deadline without responding.
        """
        deadline = requirement.deadline_ticks
        initial_transition = self._event_transition(trigger_state, requirement.trigger_event)
        if initial_transition is None:
            return 0, 0, []

        worst_case = 0
        explored = 0
        visited: Set[_Config] = set()

        # The event transition itself fires instantaneously when the event arrives.
        start_configs, responded = self._apply_transition(
            _Config(trigger_state, 0, 0), initial_transition, requirement
        )
        if responded:
            return 0, 1, []
        frontier = deque(start_configs)
        for config in start_configs:
            visited.add(config)

        while frontier:
            config = frontier.popleft()
            explored += 1
            if config.since_trigger > deadline:
                witness = [
                    f"trigger in state {trigger_state!r}",
                    f"no response after {config.since_trigger} ticks "
                    f"(deadline {deadline}), stuck near state {config.state!r}",
                ]
                return None, explored, witness
            worst_case = max(worst_case, config.since_trigger)
            for successor, responded in self._successors(config, requirement):
                if responded:
                    worst_case = max(worst_case, successor.since_trigger)
                    continue
                if successor in visited:
                    continue
                visited.add(successor)
                frontier.append(successor)
        return worst_case, explored, []

    # ------------------------------------------------------------------
    def _event_transition(self, state: str, event: str) -> Optional[Transition]:
        for transition in self.chart.transitions_from(state):
            if transition.event == event and transition.guard is None:
                return transition
            if transition.event == event and transition.guard is not None:
                # Guards over local variables are evaluated with initial values;
                # a data-dependent trigger is treated conservatively as enabled.
                return transition
        return None

    def _apply_transition(
        self, config: _Config, transition: Transition, requirement: BoundedResponseRequirement
    ) -> Tuple[List[_Config], bool]:
        """Apply a transition instantaneously; detect whether it responds."""
        for action in transition.actions:
            if action.variable == requirement.response_variable and not callable(action.value):
                if action.value == requirement.response_value:
                    return [], True
        successor = _Config(transition.target, 0, config.since_trigger)
        return [successor], False

    def _successors(
        self, config: _Config, requirement: BoundedResponseRequirement
    ) -> List[Tuple[_Config, bool]]:
        """All admissible next configurations (one model tick or a temporal firing)."""
        successors: List[Tuple[_Config, bool]] = []
        forced = False
        for transition in self.chart.transitions_from(config.state):
            if transition.event is not None or transition.temporal is None:
                continue
            temporal = transition.temporal
            if temporal.may_fire(config.elapsed_in_state):
                applied, responded = self._apply_transition(config, transition, requirement)
                if responded:
                    successors.append((config, True))
                else:
                    successors.extend((successor, False) for successor in applied)
            if temporal.must_fire(config.elapsed_in_state):
                forced = True
        if not forced:
            # Letting one more tick pass is admissible only while no temporal
            # bound forces a firing at this instant.
            successors.append(
                (
                    _Config(config.state, config.elapsed_in_state + 1, config.since_trigger + 1),
                    False,
                )
            )
        return successors
