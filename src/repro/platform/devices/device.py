"""Input-Device and Output-Device base classes.

In the paper's four-variable mapping the Input-Device converts m-events
(physical changes at the platform boundary) into values the generated code can
read as i-variables, and the Output-Device converts o-variable writes into
c-events (physical changes enforced by actuators).

The devices here model the *platform side* of that conversion:

* an input device samples its physical line periodically (sensor + driver) and
  latches detections into a driver buffer with a conversion latency;
* an output device applies writes after an actuation latency and only then
  makes the change physically visible (the c-event).

Sampling is event-driven in cost but not in timing: every input device keeps
its periodic sampling chain, and marks the chain's kernel handle *dormant*
while a sample would find nothing to do (see
:meth:`~repro.platform.kernel.simulator.Simulator.schedule_periodic`).  The
kernel then re-arms the idle samples without calling the driver, and the
driver clears the mark from the physical side the moment a change arrives.
The seed engine's drivers never create the handle, so every mark update
tolerates its absence.

The devices record M and C events into the shared :class:`TraceRecorder`; the
I and O events are recorded by the integration layer because, per the paper,
the i-event is "when CODE(M) reads the input" and the o-event is "when
CODE(M) writes the output".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional

from ..kernel.random import JitterModel, constant
from ..kernel.simulator import Simulator

if TYPE_CHECKING:
    from ...core.four_variables import TraceRecorder


@dataclass(frozen=True)
class DeviceEvent:
    """An input change detected by a device driver, ready to be read by software."""

    value: Any
    physical_timestamp_us: int
    detected_timestamp_us: int


class Device:
    """Common plumbing for simulated devices."""

    def __init__(self, name: str, simulator: Simulator, recorder: TraceRecorder) -> None:
        self.name = name
        self.simulator = simulator
        self.recorder = recorder
        # Kernel-event labels, precomputed once: sampling devices schedule two
        # events per period, so per-call f-string formatting was measurable in
        # the dispatch profile.
        self._label_sample = f"sample:{name}"
        self._label_latch = f"latch:{name}"
        self._label_actuate = f"actuate:{name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class EventInputDevice(Device):
    """An edge-triggered input device (e.g. a push button).

    The physical environment calls :meth:`trigger` when the button is pressed;
    this is the m-event.  The device driver samples the (latched) line every
    ``sampling_period_us``; when it finds a pending edge, it converts it after
    ``conversion_latency`` into a :class:`DeviceEvent` in the driver buffer.
    Software reads the buffer with :meth:`poll`.

    The latch guarantees no edge is lost even if the pulse is shorter than the
    sampling period — this mirrors interrupt-flag-style button handling and
    keeps test scenarios free of sporadic missed inputs.
    """

    def __init__(
        self,
        name: str,
        monitored_variable: str,
        simulator: Simulator,
        recorder: TraceRecorder,
        *,
        sampling_period_us: int,
        sampling_offset_us: int = 0,
        conversion_latency: Optional[JitterModel] = None,
        buffer_capacity: int = 16,
        rng: Any = None,
    ) -> None:
        super().__init__(name, simulator, recorder)
        if sampling_period_us <= 0:
            raise ValueError("sampling period must be positive")
        self.monitored_variable = monitored_variable
        self.sampling_period_us = sampling_period_us
        self.sampling_offset_us = sampling_offset_us
        self.conversion_latency = conversion_latency or constant(0)
        # Pre-bound sampler: one draw per detected edge, two attribute hops
        # saved on each.
        self._latency_sample = self.conversion_latency.sample
        self.buffer_capacity = buffer_capacity
        self._rng = rng
        self._pending_edges: List[DeviceEvent] = []
        self._buffer: List[DeviceEvent] = []
        self._line_state = False
        self.missed_events = 0
        self._sampling_started = False
        # Kernel handle of the periodic sampling event (see schedule_periodic).
        self._sample_handle = None

    # ------------------------------------------------------------------
    # Physical side (called by the environment)
    # ------------------------------------------------------------------
    def trigger(self, value: Any = True) -> None:
        """Apply a physical edge (the m-event) to the device line."""
        now = self.simulator.now
        self._line_state = bool(value)
        self.recorder.record_m(self.monitored_variable, value, device=self.name)
        self._pending_edges.append(DeviceEvent(value, now, now))
        handle = self._sample_handle
        if handle is not None:
            handle.dormant = False

    def release(self) -> None:
        """Return the physical line to its inactive state (not an m-event of interest)."""
        self._line_state = False

    # ------------------------------------------------------------------
    # Driver side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic sampling of the line (idempotent)."""
        if self._sampling_started:
            return
        self._sampling_started = True
        # The kernel re-arms the sampling event itself (schedule_periodic),
        # drawing the sequence number at the exact point the tail re-arm in
        # ``_sample`` used to — dispatch order is unchanged, but the innermost
        # device loop no longer pays one schedule call per period per device.
        handle = self.simulator.schedule_periodic(
            self.sampling_offset_us, self.sampling_period_us, self._sample, 0, self._label_sample
        )
        # A sample without a pending edge does nothing: the chain is dormant
        # until ``trigger`` delivers one.
        handle.dormant = not self._pending_edges
        self._sample_handle = handle

    def _sample(self) -> None:
        if self._pending_edges:
            latency = self._latency_sample(self._rng)
            self.simulator.schedule(
                latency,
                lambda edges=list(self._pending_edges): self._latch(edges),
                0,
                self._label_latch,
            )
            self._pending_edges.clear()
            self._sample_handle.dormant = True

    def _latch(self, edges: List[DeviceEvent]) -> None:
        now = self.simulator.now
        for edge in edges:
            if len(self._buffer) >= self.buffer_capacity:
                self.missed_events += 1
                continue
            self._buffer.append(DeviceEvent(edge.value, edge.physical_timestamp_us, now))

    # ------------------------------------------------------------------
    # Software side (called by tasks / interfacing code)
    # ------------------------------------------------------------------
    def poll(self) -> List[DeviceEvent]:
        """Drain and return all detected events (oldest first)."""
        events, self._buffer = self._buffer, []
        return events

    @property
    def pending_count(self) -> int:
        """Number of detected events waiting to be polled."""
        return len(self._buffer)


class StateInputDevice(Device):
    """A level-style input device (e.g. a reservoir level sensor).

    The environment sets a continuous physical value; the driver samples it
    periodically into a latched register that software reads with :meth:`read`.
    A change of the physical value is the m-event.
    """

    def __init__(
        self,
        name: str,
        monitored_variable: str,
        simulator: Simulator,
        recorder: TraceRecorder,
        *,
        sampling_period_us: int,
        sampling_offset_us: int = 0,
        conversion_latency: Optional[JitterModel] = None,
        initial_value: Any = False,
        rng: Any = None,
    ) -> None:
        super().__init__(name, simulator, recorder)
        if sampling_period_us <= 0:
            raise ValueError("sampling period must be positive")
        self.monitored_variable = monitored_variable
        self.sampling_period_us = sampling_period_us
        self.sampling_offset_us = sampling_offset_us
        self.conversion_latency = conversion_latency or constant(0)
        # Pre-bound sampler: drawn once per sampling period (the hot path).
        self._latency_sample = self.conversion_latency.sample
        self._rng = rng
        self._physical_value = initial_value
        self._latched_value = initial_value
        self._sampling_started = False
        self._latches_in_flight = 0
        # Kernel handle of the periodic sampling event (see schedule_periodic).
        self._sample_handle = None
        # First sampling instant whose latency draw is still owed to the RNG
        # stream, or None when no sample has been skipped (see _sample).
        self._owed_from_us: Optional[int] = None

    # Physical side -----------------------------------------------------
    def set_physical(self, value: Any) -> None:
        """Change the physical quantity observed by the sensor (an m-event)."""
        if value == self._physical_value:
            return
        self._physical_value = value
        self.recorder.record_m(self.monitored_variable, value, device=self.name)
        handle = self._sample_handle
        if handle is not None:
            handle.dormant = False

    @property
    def physical_value(self) -> Any:
        return self._physical_value

    # Driver side --------------------------------------------------------
    def start(self) -> None:
        if self._sampling_started:
            return
        self._sampling_started = True
        # Kernel-side periodic re-arm; see EventInputDevice.start.
        handle = self.simulator.schedule_periodic(
            self.sampling_offset_us, self.sampling_period_us, self._sample, 0, self._label_sample
        )
        self._sample_handle = handle
        if self._physical_value == self._latched_value:
            handle.dormant = True
            self._owed_from_us = handle.time_us

    def _sample(self) -> None:
        value = self._physical_value
        handle = self._sample_handle
        sample = self._latency_sample
        rng = self._rng
        # Every sample draws a latency, so the device's RNG stream stays
        # aligned with the seed engine draw for draw.  Samples the kernel
        # skipped while the chain was dormant still owe theirs: replay them
        # first (the stream is private to the device, so deferring draws
        # changes no value).  The count comes from the handle's own period,
        # which a clock-drift fault may have rescaled.
        owed_from = self._owed_from_us
        if owed_from is not None:
            self._owed_from_us = None
            for _ in range((handle.time_us - owed_from) // handle.period_us):
                sample(rng)
        latency = sample(rng)
        # Skip the latch event when it cannot change anything: the sampled
        # value equals the latched one and no earlier latch is still in
        # flight (an in-flight latch may carry a different value, and a
        # shorter-latency younger sample must still be able to overtake it —
        # exactly as on the seed path).  A skipped latch had no observable
        # effect, and dropping a schedule call never reorders the remaining
        # events (sequence numbers stay monotonic in call order), so traces
        # are byte-identical while steady-state sensors cost one kernel event
        # per period instead of two.
        if self._latches_in_flight or value != self._latched_value:
            self._latches_in_flight += 1
            self.simulator.schedule(latency, lambda v=value: self._latch(v), 0, self._label_latch)
        else:
            # Nothing in flight and nothing to latch: every further sample is
            # a bare draw until ``set_physical`` changes the value.
            handle.dormant = True
            self._owed_from_us = handle.time_us + handle.period_us

    def _latch(self, value: Any) -> None:
        self._latches_in_flight -= 1
        self._latched_value = value

    # Software side -------------------------------------------------------
    def read(self) -> Any:
        """Return the most recently latched sample."""
        return self._latched_value


class OutputDevice(Device):
    """An actuator with its device driver (e.g. the pump motor).

    Software calls :meth:`write`; after ``actuation_latency`` the value becomes
    physically effective and the c-event is recorded.  Writes of an unchanged
    value do not produce c-events (the paper's c-events are value *changes*).
    """

    def __init__(
        self,
        name: str,
        controlled_variable: str,
        simulator: Simulator,
        recorder: TraceRecorder,
        *,
        actuation_latency: Optional[JitterModel] = None,
        initial_value: Any = 0,
        rng: Any = None,
    ) -> None:
        super().__init__(name, simulator, recorder)
        self.controlled_variable = controlled_variable
        self.actuation_latency = actuation_latency or constant(0)
        self._latency_sample = self.actuation_latency.sample
        self._rng = rng
        self._physical_value = initial_value
        self._commanded_value = initial_value
        self.writes = 0
        self._observers: List[Any] = []

    # Software side -------------------------------------------------------
    def write(self, value: Any) -> None:
        """Command a new actuator value (driver + hardware apply it after latency)."""
        self.writes += 1
        self._commanded_value = value
        latency = self._latency_sample(self._rng)
        self.simulator.schedule(latency, lambda v=value: self._apply(v), 0, self._label_actuate)

    # Physical side -------------------------------------------------------
    def _apply(self, value: Any) -> None:
        if value == self._physical_value:
            return
        self._physical_value = value
        self.recorder.record_c(self.controlled_variable, value, device=self.name)
        for observer in self._observers:
            observer(value, self.simulator.now)

    @property
    def physical_value(self) -> Any:
        """The value currently enforced on the physical environment."""
        return self._physical_value

    @property
    def commanded_value(self) -> Any:
        """The most recently commanded (but possibly not yet applied) value."""
        return self._commanded_value

    def add_observer(self, callback: Any) -> None:
        """Register ``callback(value, timestamp_us)`` invoked on physical changes.

        The physical environment uses this to close the loop (e.g. deplete the
        reservoir while the motor runs).
        """
        self._observers.append(callback)
