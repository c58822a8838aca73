"""Model-level executor with zero-time (instantaneous) transition semantics.

This is the reference semantics the generated code must preserve *functionally*
and against which the implemented system's *timing* deviates.  Characteristics:

* Input events are processed instantaneously: a macro-step (run-to-completion
  chain of enabled transitions) takes zero model time.
* Temporal triggers are evaluated against the state-local clock in model ticks
  (1 ms, the paper's ``E_CLK``); the executor resolves ``before(n)`` eagerly.
* The executor records every transition firing and output change with its tick
  timestamp, so model-level traces can be compared against implementation
  traces (Fig. 3-(a) vs Fig. 3-(b) of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .declarations import OutputWrite
from .statechart import Statechart, Transition


class ModelExecutionError(RuntimeError):
    """Raised on executor misuse (unknown events, runaway transition chains)."""


@dataclass(frozen=True)
class OutputChange:
    """An output variable assignment performed by the model."""

    variable: str
    value: Any
    tick: int
    transition: str


@dataclass(frozen=True)
class TransitionFiring:
    """A transition taken by the model at a given tick."""

    transition: str
    source: str
    target: str
    tick: int


class ModelExecutor:
    """Executes a statechart with instantaneous transition semantics."""

    #: Safety bound on the number of transitions in one macro-step.
    MAX_CHAIN = 64

    def __init__(self, chart: Statechart) -> None:
        chart.check_references()
        self.chart = chart
        self.current_state: str = chart.initial_state
        self.current_tick: int = 0
        self.state_entered_tick: int = 0
        self.outputs: Dict[str, Any] = chart.initial_outputs()
        self.locals: Dict[str, Any] = chart.initial_locals()
        self.output_changes: List[OutputChange] = []
        self.firings: List[TransitionFiring] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def elapsed_in_state(self) -> int:
        """Model ticks spent in the current state."""
        return self.current_tick - self.state_entered_tick

    def _guard_context(self) -> Dict[str, Any]:
        context = dict(self.locals)
        context.update(self.outputs)
        return context

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def inject(self, event_name: str) -> List[OutputWrite]:
        """Process one input event instantaneously (a macro-step).

        Returns the output writes performed during the macro-step.
        """
        if not self.chart.has_input_event(event_name):
            raise ModelExecutionError(
                f"model {self.chart.name!r} has no input event {event_name!r}"
            )
        writes = []
        transition = self._enabled_transition(event=event_name)
        if transition is not None:
            writes.extend(self._fire(transition))
            writes.extend(self._run_eager_chain())
        return writes

    def advance(self, ticks: int) -> List[OutputWrite]:
        """Advance model time by ``ticks``, firing temporal transitions as they
        become enabled.  Returns the output writes performed."""
        if ticks < 0:
            raise ModelExecutionError("cannot advance by a negative number of ticks")
        writes: List[OutputWrite] = []
        target_tick = self.current_tick + ticks
        writes.extend(self._run_eager_chain())
        while self.current_tick < target_tick:
            next_firing = self._next_temporal_firing_tick()
            if next_firing is None or next_firing > target_tick:
                self.current_tick = target_tick
                break
            self.current_tick = max(self.current_tick, next_firing)
            transition = self._enabled_transition()
            if transition is None:
                # A temporal bound was reached but its guard is false; move one
                # tick forward so the loop cannot livelock on the same instant.
                self.current_tick = min(self.current_tick + 1, target_tick)
                continue
            writes.extend(self._fire(transition))
            writes.extend(self._run_eager_chain())
        return writes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enabled_transition(self, event: Optional[str] = None) -> Optional[Transition]:
        """Highest-priority enabled transition out of the current state.

        With ``event`` given, only event-triggered transitions on that event
        are considered; otherwise only temporal transitions are considered
        (eager semantics).
        """
        context = self._guard_context()
        for transition in self.chart.transitions_from(self.current_state):
            if event is not None:
                if transition.event != event:
                    continue
            else:
                if transition.event is not None or transition.temporal is None:
                    continue
                if not transition.temporal.eager_fire(self.elapsed_in_state):
                    continue
            if transition.guard is not None and not transition.guard(context):
                continue
            return transition
        return None

    def _run_eager_chain(self) -> List[OutputWrite]:
        """Fire eagerly-enabled temporal transitions until quiescence."""
        writes: List[OutputWrite] = []
        for _ in range(self.MAX_CHAIN):
            transition = self._enabled_transition()
            if transition is None:
                return writes
            writes.extend(self._fire(transition))
        raise ModelExecutionError(
            f"macro-step exceeded {self.MAX_CHAIN} chained transitions in state "
            f"{self.current_state!r}; the model likely has a zero-time loop"
        )

    def _next_temporal_firing_tick(self) -> Optional[int]:
        """Earliest future tick at which a temporal transition becomes enabled."""
        candidates = []
        for transition in self.chart.transitions_from(self.current_state):
            if transition.temporal is None or transition.event is not None:
                continue
            required = transition.temporal.ticks
            if isinstance(required, int):
                firing_tick = self.state_entered_tick + (
                    0 if transition.temporal.eager_fire(0) else required
                )
                candidates.append(max(firing_tick, self.current_tick))
        if not candidates:
            return None
        return min(candidates)

    def _fire(self, transition: Transition) -> List[OutputWrite]:
        writes: List[OutputWrite] = []
        context = self._guard_context()
        for action in transition.actions:
            value = action.evaluate(context)
            if self.chart.has_output_variable(action.variable):
                self.outputs[action.variable] = value
                writes.append(OutputWrite(action.variable, value))
                self.output_changes.append(
                    OutputChange(action.variable, value, self.current_tick, transition.name)
                )
            else:
                self.locals[action.variable] = value
        self.firings.append(
            TransitionFiring(transition.name, transition.source, transition.target, self.current_tick)
        )
        self.current_state = transition.target
        self.state_entered_tick = self.current_tick
        return writes
