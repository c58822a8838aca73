"""Intermediate representation produced by lowering a statechart.

The paper's code generator (RealTime Workshop / Simulink Coder) emits C code
that "implements transition tables, boolean (or integer) variables to
represent input and output occurrences, and execution logic (switch-case or
if-then-else statements), which maps to the model structure".  The IR here is
exactly that: numbered states, input flags, output variables and a transition
table whose rows keep the name and index of the model transition they came
from (M-testing names the Trans1 / Trans2 delays by them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..model.statechart import Statechart, Transition
from ..model.temporal import After, At, Before, TemporalTrigger


class LoweringError(ValueError):
    """Raised when a statechart cannot be lowered to the IR."""


@dataclass(frozen=True)
class ActionIR:
    """One assignment executed when a transition fires."""

    variable: str
    value: Any
    is_output: bool


@dataclass(frozen=True)
class TransitionIR:
    """One row of the generated transition table."""

    index: int
    name: str
    source_index: int
    target_index: int
    #: ``"event"`` or one of the temporal kinds ``"after"`` / ``"at"`` / ``"before"``.
    trigger_kind: str
    #: Event name for event triggers; tick bound for temporal triggers.
    trigger_param: Any
    guard: Optional[Callable[[Dict[str, Any]], bool]]
    actions: Tuple[ActionIR, ...]
    priority: int


@dataclass
class CodeModel:
    """The complete lowered model: everything the runtime and emitters need."""

    name: str
    state_names: List[str]
    initial_state_index: int
    input_names: List[str]
    output_initials: Dict[str, Any]
    local_initials: Dict[str, Any]
    transitions: List[TransitionIR] = field(default_factory=list)

    # transitions_from cache.  Deliberately plain class attributes (no
    # annotations), so they are not dataclass fields and equality/repr
    # semantics stay unchanged; rebuilt whenever the row count changes
    # (lowering appends rows before the first lookup).
    _rows_by_state = None
    _rows_cached_count = -1

    def transitions_from(self, state_index: int) -> List[TransitionIR]:
        """Rows out of ``state_index`` in descending evaluation priority.

        Called once per CODE(M) invocation in the execution hot loop, so the
        grouped-and-sorted rows are cached.  Callers must treat the returned
        list as read-only.
        """
        count = len(self.transitions)
        cache = self._rows_by_state
        if cache is None or self._rows_cached_count != count:
            cache = {}
            for row in self.transitions:
                cache.setdefault(row.source_index, []).append(row)
            for rows in cache.values():
                # Stable sort: equal priorities keep table order, matching the
                # previous per-call filter+sort exactly.
                rows.sort(key=lambda row: row.priority)
            self._rows_by_state = cache
            self._rows_cached_count = count
        return cache.get(state_index, [])

    def state_index(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None

    @property
    def transition_names(self) -> List[str]:
        return [row.name for row in self.transitions]


def _temporal_kind(trigger: TemporalTrigger) -> str:
    if isinstance(trigger, After):
        return "after"
    if isinstance(trigger, At):
        return "at"
    if isinstance(trigger, Before):
        return "before"
    raise LoweringError(f"unsupported temporal trigger {type(trigger).__name__}")


def lower_statechart(chart: Statechart) -> CodeModel:
    """Lower a validated statechart into a :class:`CodeModel`."""
    chart.check_references()
    state_names = chart.state_names
    output_names = {variable.name for variable in chart.output_variables}
    model = CodeModel(
        name=chart.name,
        state_names=state_names,
        initial_state_index=state_names.index(chart.initial_state),
        input_names=[event.name for event in chart.input_events],
        output_initials=chart.initial_outputs(),
        local_initials=chart.initial_locals(),
    )
    for index, transition in enumerate(chart.transitions):
        model.transitions.append(_lower_transition(index, transition, state_names, output_names))
    return model


def _lower_transition(
    index: int,
    transition: Transition,
    state_names: Sequence[str],
    output_names: set,
) -> TransitionIR:
    if transition.event is not None and transition.temporal is not None:
        raise LoweringError(
            f"transition {transition.name!r} has both an event and a temporal trigger"
        )
    if transition.event is not None:
        trigger_kind = "event"
        trigger_param: Any = transition.event
    elif transition.temporal is not None:
        trigger_kind = _temporal_kind(transition.temporal)
        trigger_param = transition.temporal.ticks
    else:
        # Untriggered transitions fire whenever the guard holds; represent them
        # as after(0) so the runtime has a single uniform mechanism.
        trigger_kind = "after"
        trigger_param = 0
    actions = tuple(
        ActionIR(action.variable, action.value, action.variable in output_names)
        for action in transition.actions
    )
    return TransitionIR(
        index=index,
        name=transition.name,
        source_index=list(state_names).index(transition.source),
        target_index=list(state_names).index(transition.target),
        trigger_kind=trigger_kind,
        trigger_param=trigger_param,
        guard=transition.guard,
        actions=actions,
        priority=transition.priority,
    )
