"""Input/output interfacing code between CODE(M) and the device drivers.

Platform integration (step (3) of Fig. 1 in the paper) adds exactly this kind
of code: "input interfacing code converts pressing the bolus request button
[...] into updating the generated boolean variable of CODE(M)".  The bindings
here are that interfacing code for the simulated platform:

* :class:`EventInputBinding` — drains an edge-triggered input device and turns
  each detected edge into an i-variable occurrence;
* :class:`LevelInputBinding` — watches a sampled level sensor and produces an
  i-variable occurrence on the configured edge (e.g. reservoir becomes empty);
* :class:`OutputBinding` — forwards an o-variable write to its actuator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..model.declarations import OutputWrite
from ..platform.devices.device import EventInputDevice, StateInputDevice


class EventInputBinding:
    """Maps detected edges of an :class:`EventInputDevice` to an input variable."""

    def __init__(self, device: EventInputDevice, input_variable: str) -> None:
        self.device = device
        self.input_variable = input_variable

    def collect(self) -> List[Tuple[str, Any]]:
        """Drain the device driver buffer into i-variable occurrences."""
        # Interfacing code is entitled to the driver buffer (it *is* the
        # driver's consumer); the empty check avoids a poll call and two list
        # allocations on the overwhelmingly common idle cycle.
        if not self.device._buffer:
            return []
        variable = self.input_variable
        return [(variable, event.value) for event in self.device.poll()]


class LevelInputBinding:
    """Maps a level-sensor edge (e.g. becomes True) to an input variable occurrence."""

    def __init__(
        self,
        device: StateInputDevice,
        input_variable: str,
        *,
        trigger_value: Any = True,
    ) -> None:
        self.device = device
        self.input_variable = input_variable
        self.trigger_value = trigger_value
        self._previous: Any = device.read()

    def collect(self) -> List[Tuple[str, Any]]:
        # Reads go through ``read()``: sensor fault models wrap it.
        return self._edge(self.device.read())

    def _edge(self, current: Any) -> List[Tuple[str, Any]]:
        """The occurrences produced by reading ``current`` (at most one)."""
        if current == self._previous:
            return []
        occurrences: List[Tuple[str, Any]] = []
        if current == self.trigger_value and self._previous != self.trigger_value:
            occurrences.append((self.input_variable, True))
        self._previous = current
        return occurrences


class InputInterfacing:
    """The complete input-side interfacing code: every input binding of the system."""

    def __init__(self, bindings: Optional[Sequence[object]] = None) -> None:
        self._bindings: List[object] = list(bindings or ())

    def add(self, binding: object) -> None:
        self._bindings.append(binding)

    def collect(self) -> List[Tuple[str, Any]]:
        """Poll every binding and return all pending i-variable occurrences."""
        # This runs once per sensing cycle; on the overwhelmingly common idle
        # cycle every binding returns [].  Inlining the two built-in bindings'
        # idle checks skips a method call and a list allocation per binding
        # per cycle; anything else (e.g. a test double) takes the general
        # collect() path unchanged.  Each level binding reads its sensor
        # exactly once per cycle, through ``read()`` (fault models wrap it,
        # and a glitching read draws from its fault stream on every call).
        occurrences: List[Tuple[str, Any]] = []
        for binding in self._bindings:
            cls = binding.__class__
            if cls is EventInputBinding:
                if not binding.device._buffer:
                    continue
            elif cls is LevelInputBinding:
                current = binding.device.read()
                if current != binding._previous:
                    occurrences.extend(binding._edge(current))
                continue
            occurrences.extend(binding.collect())
        return occurrences

    @property
    def bindings(self) -> Sequence[object]:
        return tuple(self._bindings)


@dataclass(frozen=True)
class OutputBinding:
    """Maps an o-variable to the output device that realises it."""

    output_variable: str
    device: Any  # OutputDevice; typed loosely to allow test doubles


class OutputInterfacing:
    """The complete output-side interfacing code."""

    def __init__(self, bindings: Optional[Sequence[OutputBinding]] = None) -> None:
        self._by_variable: Dict[str, OutputBinding] = {}
        for binding in bindings or ():
            self.add(binding)
        self.unmapped_writes = 0

    def add(self, binding: OutputBinding) -> None:
        if binding.output_variable in self._by_variable:
            raise ValueError(f"output variable {binding.output_variable!r} already bound")
        self._by_variable[binding.output_variable] = binding

    def apply(self, write: OutputWrite) -> bool:
        """Forward one o-variable write to its device.

        Returns ``False`` (and counts it) when the variable has no bound
        device — legal for model outputs that are not actuated on this
        hardware variant (e.g. a log-only output).
        """
        binding = self._by_variable.get(write.variable)
        if binding is None:
            self.unmapped_writes += 1
            return False
        binding.device.write(write.value)
        return True

    def apply_all(self, writes: Sequence[OutputWrite]) -> int:
        """Apply several writes; returns how many reached a device."""
        return sum(1 for write in writes if self.apply(write))
