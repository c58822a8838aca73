"""Executable form of the generated code: CODE(M).

:class:`GeneratedCode` is the runtime object the integration schemes execute
on the simulated platform.  Its API is deliberately shaped like the C code the
paper's code generator produces:

* input occurrences are boolean flags (``set_input``), latched until consumed;
* output occurrences are variable writes collected per transition;
* the execution logic is a transition-table scan over the current state.

The implementation schemes need to charge CPU time *per transition* (that is
what Transition-Delay measures), so the stepping API is exposed at transition
granularity: ``enabled_transition()`` returns the next row that would fire and
``fire(row)`` commits it.  ``scan()`` is the convenience wrapper that chains
them for callers that do not need per-transition instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..model.declarations import OutputWrite
from .ir import CodeModel, TransitionIR


class GeneratedCodeError(RuntimeError):
    """Raised on misuse of the generated-code runtime."""


@dataclass(frozen=True)
class Firing:
    """One committed transition together with the output writes it produced."""

    transition: TransitionIR
    writes: Tuple[OutputWrite, ...]


class GeneratedCode:
    """Runtime state of CODE(M): current state, latched inputs, outputs, clock."""

    def __init__(self, model: CodeModel) -> None:
        self.model = model
        self.state_index: int = model.initial_state_index
        self.state_clock_ticks: int = 0
        self.inputs: Dict[str, bool] = {name: False for name in model.input_names}
        self.outputs: Dict[str, Any] = dict(model.output_initials)
        self.locals: Dict[str, Any] = dict(model.local_initials)
        self.firing_history: List[Firing] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state_name(self) -> str:
        return self.model.state_names[self.state_index]

    def output(self, name: str) -> Any:
        try:
            return self.outputs[name]
        except KeyError:
            raise GeneratedCodeError(f"unknown output variable {name!r}") from None

    # ------------------------------------------------------------------
    # Interfacing-code API (platform integration calls these)
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: bool = True) -> None:
        """Latch an input occurrence (what the input-interfacing code does)."""
        if name not in self.inputs:
            raise GeneratedCodeError(f"unknown input variable {name!r}")
        self.inputs[name] = bool(value)

    def advance_clock(self, ticks: int) -> None:
        """Advance the state-local clock by ``ticks`` (driven by the platform timer)."""
        if ticks < 0:
            raise GeneratedCodeError("cannot advance the clock by a negative amount")
        self.state_clock_ticks += ticks

    def clear_inputs(self) -> None:
        """Discard unconsumed input occurrences at the end of a step.

        The model's instantaneous semantics discards an event that no
        transition of the current state reacts to; the generated step function
        preserves that behaviour by clearing its input flags at the end of
        every invocation.  Integration code must call this (or use
        :meth:`scan`, which does) once per CODE(M) invocation.
        """
        for name in self.inputs:
            self.inputs[name] = False

    # ------------------------------------------------------------------
    # Transition-table execution
    # ------------------------------------------------------------------
    def _guard_context(self) -> Dict[str, Any]:
        context = dict(self.locals)
        context.update(self.outputs)
        return context

    def _row_enabled(self, row: TransitionIR) -> bool:
        if row.trigger_kind == "event":
            if not self.inputs.get(row.trigger_param, False):
                return False
        elif row.trigger_kind == "after":
            if self.state_clock_ticks < row.trigger_param:
                return False
        elif row.trigger_kind == "at":
            if self.state_clock_ticks < row.trigger_param:
                return False
        elif row.trigger_kind == "before":
            # Generated code resolves the nondeterministic bound eagerly.
            pass
        else:  # pragma: no cover - lowering guarantees the kinds above
            raise GeneratedCodeError(f"unknown trigger kind {row.trigger_kind!r}")
        if row.guard is not None and not row.guard(self._guard_context()):
            return False
        return True

    def enabled_transition(self) -> Optional[TransitionIR]:
        """The highest-priority enabled row out of the current state, if any."""
        for row in self.model.transitions_from(self.state_index):
            if self._row_enabled(row):
                return row
        return None

    def fire(self, row: TransitionIR) -> List[OutputWrite]:
        """Commit ``row``: consume its trigger, run its actions, switch state.

        Returns the output writes performed (in action order).
        """
        if row.source_index != self.state_index:
            raise GeneratedCodeError(
                f"cannot fire {row.name!r} from state {self.state_name!r}"
            )
        if row.trigger_kind == "event":
            self.inputs[row.trigger_param] = False
        writes: List[OutputWrite] = []
        # The context snapshot only exists for computed action values; literal
        # actions (the common case in generated tables) skip the dict builds.
        context = (
            self._guard_context()
            if any(callable(action.value) for action in row.actions)
            else None
        )
        for action in row.actions:
            value = action.value(dict(context)) if callable(action.value) else action.value
            if action.is_output:
                self.outputs[action.variable] = value
                writes.append(OutputWrite(action.variable, value))
            else:
                self.locals[action.variable] = value
        self.state_index = row.target_index
        self.state_clock_ticks = 0
        firing = Firing(row, tuple(writes))
        self.firing_history.append(firing)
        return writes

    def scan(self, max_transitions: Optional[int] = None) -> List[Firing]:
        """Fire enabled transitions until quiescence (or ``max_transitions``).

        This mirrors one invocation of the generated step function; the
        integration schemes bound how many transitions a single invocation
        may take (scheme 1 takes one, schemes 2 and 3 run to completion).
        """
        limit = max_transitions if max_transitions is not None else 64
        firings: List[Firing] = []
        for _ in range(limit):
            row = self.enabled_transition()
            if row is None:
                break
            writes = self.fire(row)
            firings.append(Firing(row, tuple(writes)))
        self.clear_inputs()
        return firings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GeneratedCode({self.model.name!r}, state={self.state_name!r}, "
            f"clock={self.state_clock_ticks})"
        )
