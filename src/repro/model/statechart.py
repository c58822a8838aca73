"""The timed statechart structure.

A :class:`Statechart` is a flat state machine with:

* named states (one of them initial);
* transitions with an optional *event trigger* (an input event), an optional
  *temporal trigger* (``after`` / ``at`` / ``before`` on the state-local
  clock), an optional guard over local variables, and a list of output /
  local assignments;
* declared input events, output variables and local variables.

This is exactly the vocabulary of the paper's Fig. 2 (plus local variables
used by the extended GPCA model).  Hierarchy is not needed for the GPCA
fragment and is intentionally left out; composite behaviour is expressed by
explicit states, which also keeps the generated transition table faithful to
the structure the paper's code generator (RealTime Workshop) emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .declarations import Assign, InputEvent, LocalVariable, OutputVariable
from .temporal import TemporalTrigger

GuardFn = Callable[[Dict[str, Any]], bool]


@dataclass(frozen=True)
class State:
    """A named state of the chart."""

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("state name must be non-empty")


@dataclass(frozen=True)
class Transition:
    """A transition between two states.

    ``priority`` orders transitions out of the same source state; lower values
    are evaluated first (document order in Stateflow terms).
    """

    name: str
    source: str
    target: str
    event: Optional[str] = None
    temporal: Optional[TemporalTrigger] = None
    guard: Optional[GuardFn] = None
    actions: Tuple[Assign, ...] = ()
    priority: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transition name must be non-empty")
        if not self.source or not self.target:
            raise ValueError(f"transition {self.name!r} must name source and target states")


class StatechartError(ValueError):
    """Raised when a statechart is structurally malformed."""


class Statechart:
    """A complete timed statechart model."""

    def __init__(self, name: str) -> None:
        if not name:
            raise StatechartError("statechart name must be non-empty")
        self.name = name
        self._states: Dict[str, State] = {}
        self._transitions: List[Transition] = []
        self._input_events: Dict[str, InputEvent] = {}
        self._output_variables: Dict[str, OutputVariable] = {}
        self._local_variables: Dict[str, LocalVariable] = {}
        self._initial_state: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_state(self, state: State, initial: bool = False) -> State:
        if state.name in self._states:
            raise StatechartError(f"duplicate state {state.name!r}")
        self._states[state.name] = state
        if initial:
            if self._initial_state is not None:
                raise StatechartError("initial state already set")
            self._initial_state = state.name
        return state

    def add_transition(self, transition: Transition) -> Transition:
        if any(existing.name == transition.name for existing in self._transitions):
            raise StatechartError(f"duplicate transition name {transition.name!r}")
        self._transitions.append(transition)
        return transition

    def add_input_event(self, event: InputEvent) -> InputEvent:
        if event.name in self._input_events:
            raise StatechartError(f"duplicate input event {event.name!r}")
        self._input_events[event.name] = event
        return event

    def add_output_variable(self, variable: OutputVariable) -> OutputVariable:
        if variable.name in self._output_variables:
            raise StatechartError(f"duplicate output variable {variable.name!r}")
        self._output_variables[variable.name] = variable
        return variable

    def add_local_variable(self, variable: LocalVariable) -> LocalVariable:
        if variable.name in self._local_variables:
            raise StatechartError(f"duplicate local variable {variable.name!r}")
        self._local_variables[variable.name] = variable
        return variable

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[State]:
        return list(self._states.values())

    @property
    def state_names(self) -> List[str]:
        return list(self._states.keys())

    @property
    def initial_state(self) -> str:
        if self._initial_state is None:
            raise StatechartError(f"statechart {self.name!r} has no initial state")
        return self._initial_state

    @property
    def transitions(self) -> List[Transition]:
        return list(self._transitions)

    @property
    def input_events(self) -> List[InputEvent]:
        return list(self._input_events.values())

    @property
    def output_variables(self) -> List[OutputVariable]:
        return list(self._output_variables.values())

    @property
    def local_variables(self) -> List[LocalVariable]:
        return list(self._local_variables.values())

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise KeyError(f"unknown state {name!r}") from None

    def transition(self, name: str) -> Transition:
        for transition in self._transitions:
            if transition.name == name:
                return transition
        raise KeyError(f"unknown transition {name!r}")

    def has_input_event(self, name: str) -> bool:
        return name in self._input_events

    def has_output_variable(self, name: str) -> bool:
        return name in self._output_variables

    def initial_outputs(self) -> Dict[str, Any]:
        """Initial values of all output variables."""
        return {variable.name: variable.initial for variable in self._output_variables.values()}

    def initial_locals(self) -> Dict[str, Any]:
        """Initial values of all local variables."""
        return {variable.name: variable.initial for variable in self._local_variables.values()}

    def transitions_from(self, state_name: str) -> List[Transition]:
        """Outgoing transitions of ``state_name`` in priority (document) order."""
        outgoing = [t for t in self._transitions if t.source == state_name]
        return sorted(outgoing, key=lambda t: t.priority)

    # ------------------------------------------------------------------
    # Structural validation (full validation lives in model.validation)
    # ------------------------------------------------------------------
    def check_references(self) -> None:
        """Verify that transitions only reference declared states, events and variables."""
        for transition in self._transitions:
            if transition.source not in self._states:
                raise StatechartError(
                    f"transition {transition.name!r} references unknown source {transition.source!r}"
                )
            if transition.target not in self._states:
                raise StatechartError(
                    f"transition {transition.name!r} references unknown target {transition.target!r}"
                )
            if transition.event is not None and transition.event not in self._input_events:
                raise StatechartError(
                    f"transition {transition.name!r} references undeclared event {transition.event!r}"
                )
            for action in transition.actions:
                known = (
                    action.variable in self._output_variables
                    or action.variable in self._local_variables
                )
                if not known:
                    raise StatechartError(
                        f"transition {transition.name!r} assigns undeclared variable "
                        f"{action.variable!r}"
                    )
        if self._initial_state is None:
            raise StatechartError(f"statechart {self.name!r} has no initial state")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Statechart({self.name!r}, states={len(self._states)}, "
            f"transitions={len(self._transitions)})"
        )
