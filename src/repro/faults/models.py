"""Composable, seed-deterministic platform fault models.

A :class:`FaultPlan` is a declarative bundle of fault models injected into an
*implemented system* at the platform layer.  Faults are applied via **wrapper
hooks**: each model wraps an existing platform entry point (the DES kernel's
``schedule``, the scheduler's directive advance, queue ``send``, a device's
``read``/``poll``) on one concrete system instance.  Nothing inside
``repro.platform`` is modified — an empty plan performs no wrapping at all, so
the un-faulted platform stays byte-identical to the stock one (pinned by
``tests/faults/test_noop.py``).

Determinism: every stochastic fault draws from a named stream of one
:class:`repro.platform.kernel.random.RandomSource` seed handed to
:meth:`FaultPlan.instrument`, so a faulted run is a pure function of
``(system seed, fault plan, fault seed)`` — which is what lets the kill-matrix
engine shard faulted runs across worker processes and still aggregate
byte-identically.

The fault classes model the classic timing-fault taxonomy of embedded
platforms:

* :class:`ClockDriftFault` — the platform clock runs slow/fast: every
  *relative* delay scheduled on the DES kernel is scaled, while the physical
  environment's absolute-time stimuli stay put;
* :class:`ExecutionInflationFault` — WCET underestimation: compute segments
  are inflated by a factor and sporadically hit by overruns drawn from a
  :class:`~repro.platform.kernel.random.JitterModel`;
* :class:`QueueFault` — lossy / laggy / reordering IPC on one named RTOS
  queue;
* :class:`PriorityInversionFault` — periodic windows during which a
  top-priority hog runs, emulating an unbounded priority-inversion window
  blocking the CODE(M) thread;
* :class:`SensorStuckFault` / :class:`SensorGlitchFault` — input devices whose
  driver-visible value freezes, or whose detected events are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..platform.kernel.random import JitterModel, RandomSource
from ..platform.kernel.time import ms


def _jitter_to_dict(model: JitterModel) -> Dict[str, int]:
    return {
        "nominal_us": model.nominal_us,
        "plus_us": model.plus_us,
        "minus_us": model.minus_us,
    }


def _jitter_from_dict(payload: Dict[str, int]) -> JitterModel:
    return JitterModel(
        nominal_us=payload["nominal_us"],
        plus_us=payload.get("plus_us", 0),
        minus_us=payload.get("minus_us", 0),
    )


@dataclass(frozen=True)
class FaultModel:
    """Base class of all platform fault models.

    Subclasses define ``kind`` (a stable string used by serialization and the
    kill-matrix tables) and implement :meth:`instrument`, which wraps the
    relevant hook on one concrete system.  Models are frozen dataclasses of
    built-in types (plus :class:`JitterModel`, itself frozen), so fault plans
    pickle across campaign worker processes unchanged.
    """

    kind: ClassVar[str] = "base"

    def instrument(self, system, rng) -> None:  # pragma: no cover - abstract hook
        """Wrap the fault into ``system``; ``rng`` is this fault's named stream.

        A fault whose hook an idle job or the quiescence check can reach (the
        scheduler's directive advance, a level sensor's ``read``) sets
        ``system.idle_jobs_faulted``, which keeps every job of the run on the
        callback path; clock drift, which reaches idle jobs through the
        kernel's ``schedule``, declares its factor to the scheduler instead
        (see :class:`ClockDriftFault`).  Any other fault leaves quiescent
        windows open: its hook runs only on a kernel entry or a job that
        already closes the window.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description used by CLI listings."""
        return self.kind

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = _jitter_to_dict(value) if isinstance(value, JitterModel) else value
        return payload


@dataclass(frozen=True)
class ClockDriftFault(FaultModel):
    """The platform clock runs slow (or fast) by a fractional rate error.

    Implemented as a wrapper on the DES kernel's *relative* ``schedule``:
    every software-side delay (device sampling periods, compute segment
    completions, actuation latencies) is scaled by ``1 + drift``, while
    absolute-time events — the environment's m-event stimuli, periodic task
    releases — are untouched.  The net effect is that all software activity
    slows relative to the physical timeline, exactly the failure a
    mis-trimmed oscillator produces.

    Idle jobs reach the hook (every compute-segment completion is timed
    through ``schedule``), so the fault declares its factor to the scheduler
    (:attr:`RTOSScheduler.clock_factor`): quiescent windows then time each
    replayed completion as ``int(round(pending * factor))``, and the
    busy-period bound scales every worst case by the factor, rounded up.
    That argument holds for a factor of one or more only, and for one
    factor: a slow-down below one, or a second drift stacked on this one
    (whose two roundings no single factor reproduces), marks the system
    ``idle_jobs_faulted`` instead, which keeps the callback path.
    """

    kind: ClassVar[str] = "clock-drift"

    #: Fractional rate error; ``1.0`` means relative delays take twice as long.
    drift: float = 0.5

    def __post_init__(self) -> None:
        if self.drift <= -1.0:
            raise ValueError("clock drift must keep delays positive (drift > -1)")

    def instrument(self, system, rng) -> None:
        simulator = system.bundle.simulator
        original = simulator.schedule
        factor = 1.0 + self.drift
        scheduler = system.scheduler
        if factor < 1.0 or scheduler.clock_factor != 1.0:
            system.idle_jobs_faulted = True
        else:
            scheduler.clock_factor = factor

        # Mirrors Simulator.schedule's full signature (positional-or-keyword
        # priority/label plus the reuse recycling hint) so the hot-path
        # positional call sites behave identically under drift.
        def drifted_schedule(delay_us, callback, priority=0, label="", reuse=None):
            return original(
                int(round(delay_us * factor)), callback, priority, label, reuse
            )

        simulator.schedule = drifted_schedule

        # The optimised kernel's periodic events (device sampling loops)
        # re-arm inside the kernel with the period stored at registration, so
        # the drift must be applied there: scaling both the initial delay and
        # the period reproduces exactly what per-period drifted ``schedule``
        # re-arms would do (each period adds ``round(period * factor)``).
        original_periodic = getattr(simulator, "schedule_periodic", None)
        if original_periodic is not None:

            def drifted_periodic(delay_us, period_us, callback, priority=0, label=""):
                return original_periodic(
                    int(round(delay_us * factor)),
                    int(round(period_us * factor)),
                    callback,
                    priority,
                    label,
                )

            simulator.schedule_periodic = drifted_periodic

    def describe(self) -> str:
        return f"clock-drift(drift={self.drift:+g}, relative delays x{1 + self.drift:g})"


@dataclass(frozen=True)
class ExecutionInflationFault(FaultModel):
    """Compute segments run longer than budgeted (WCET underestimation).

    Wraps the scheduler's directive advance: whenever a task starts a compute
    segment, the pending duration is multiplied by ``factor`` and, with
    probability ``overrun_probability``, additionally hit by an overrun drawn
    from the ``overrun`` jitter model (seeded, hence reproducible).  ``task``
    restricts the fault to task names carrying that substring (``None`` = all
    tasks).
    """

    kind: ClassVar[str] = "exec-inflation"

    factor: float = 2.0
    task: Optional[str] = None
    overrun: Optional[JitterModel] = None
    overrun_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise ValueError("inflation factor must be non-negative")
        if not 0.0 <= self.overrun_probability <= 1.0:
            raise ValueError("overrun probability must be in [0, 1]")

    def instrument(self, system, rng) -> None:
        # ``_advance`` runs on every segment, idle jobs' included.
        system.idle_jobs_faulted = True
        scheduler = system.scheduler
        original = scheduler._advance
        factor = self.factor
        overrun = self.overrun
        overrun_probability = self.overrun_probability
        wanted = self.task

        def inflated_advance(job):
            status = original(job)
            if status == "compute" and (wanted is None or wanted in job.task.name):
                pending = int(round((job.pending_compute_us or 0) * factor))
                if overrun is not None and rng.random() < overrun_probability:
                    pending += overrun.sample(rng)
                job.pending_compute_us = pending
            return status

        scheduler._advance = inflated_advance

    def describe(self) -> str:
        scope = self.task or "all tasks"
        extra = ""
        if self.overrun is not None and self.overrun_probability > 0:
            extra = (
                f", overrun ~{self.overrun.nominal_us / 1000:g}ms "
                f"p={self.overrun_probability:g}"
            )
        return f"exec-inflation(x{self.factor:g} on {scope}{extra})"


@dataclass(frozen=True)
class QueueFault(FaultModel):
    """Lossy, laggy or reordering IPC on one named RTOS message queue.

    Queues are created by the integration scheme during ``build()``, after
    instrumentation time — so this fault wraps the scheduler's
    ``create_queue`` and instruments matching queues as they come into
    existence.  Per message (seeded): with ``drop_probability`` the message is
    silently lost (the sender still sees success — a lossy driver); else with
    ``delay_probability`` it is re-sent ``delay_us`` later from outside task
    context, followed by a scheduler dispatch round as an ISR-path send would
    run; else with ``reorder_probability`` it jumps the FIFO.  Schemes
    without queues (scheme 1) are unaffected.
    """

    kind: ClassVar[str] = "queue"

    #: Substring match against the queue name ("i_events", "o_events").
    queue: str = "i_events"
    drop_probability: float = 0.0
    delay_us: int = 0
    delay_probability: float = 0.0
    reorder_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "delay_probability", "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.delay_us < 0:
            raise ValueError("queue delay must be non-negative")
        if self.delay_probability > 0 and self.delay_us == 0:
            # Without this, the delay branch is a silent no-op and the kill
            # matrix would report the misconfigured fault as "undetected".
            raise ValueError("delay_probability > 0 requires a positive delay_us")
        total = self.drop_probability + self.delay_probability + self.reorder_probability
        if total > 1.0:
            # The three outcomes are disjoint slices of one roll; a sum above
            # one silently caps the later slices at a different rate than
            # configured.
            raise ValueError(f"drop+delay+reorder probabilities must sum to <= 1 (got {total:g})")

    def instrument(self, system, rng) -> None:
        scheduler = system.scheduler
        simulator = system.bundle.simulator
        original_create = scheduler.create_queue
        fault = self

        def faulted_create_queue(name, capacity=None):
            queue = original_create(name, capacity)
            if fault.queue in name:
                fault._wrap_queue(queue, scheduler, simulator, rng)
            return queue

        scheduler.create_queue = faulted_create_queue

    def _wrap_queue(self, queue, scheduler, simulator, rng) -> None:
        original_send = queue.send
        fault = self

        def deliver_late(item):
            # Bypass the wrapper on redelivery so a delayed message is not
            # dropped or delayed a second time, then run a dispatch round the
            # way an ISR-path send would.
            if original_send(item):
                scheduler._schedule_dispatch()

        def faulted_send(item):
            roll = rng.random()
            if roll < fault.drop_probability:
                # Silent loss: the sender believes the send succeeded.
                return True
            roll -= fault.drop_probability
            if fault.delay_us > 0 and roll < fault.delay_probability:
                simulator.schedule(
                    fault.delay_us,
                    lambda: deliver_late(item),
                    label=f"fault:queue-delay:{queue.name}",
                )
                return True
            roll -= fault.delay_probability
            accepted = original_send(item)
            if accepted and roll < fault.reorder_probability and len(queue._items) > 1:
                queue._items.appendleft(queue._items.pop())
            return accepted

        queue.send = faulted_send

    def describe(self) -> str:
        parts = []
        if self.drop_probability:
            parts.append(f"drop p={self.drop_probability:g}")
        if self.delay_probability and self.delay_us:
            parts.append(f"delay {self.delay_us / 1000:g}ms p={self.delay_probability:g}")
        if self.reorder_probability:
            parts.append(f"reorder p={self.reorder_probability:g}")
        return f"queue({self.queue!r}: {', '.join(parts) or 'no-op'})"


@dataclass(frozen=True)
class PriorityInversionFault(FaultModel):
    """Periodic windows during which a top-priority hog blocks everything.

    Registers one extra periodic task at priority ``priority`` (above every
    stock task of all three schemes) burning ``window`` of CPU per ``period_us``
    — the observable effect of an unbounded priority-inversion window, where a
    resource-holding peer runs effectively above the CODE(M) thread.
    """

    kind: ClassVar[str] = "priority-inversion"

    period_us: int = ms(80)
    window: JitterModel = field(default_factory=lambda: JitterModel(ms(35), ms(10), ms(10)))
    offset_us: int = ms(5)
    priority: int = 99

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError("inversion period must be positive")

    def instrument(self, system, rng) -> None:
        from ..platform.rtos.directives import Compute

        window = self.window

        def hog_job():
            yield Compute(window.sample(rng), label="fault:inversion-window")

        hog = system.scheduler.create_task(
            "fault_inversion_hog",
            priority=self.priority,
            job_factory=hog_job,
            period_us=self.period_us,
            offset_us=self.offset_us,
        )
        # Every hog job is this one segment, so it is also its idle shape.
        hog.idle_shape = (
            (partial(window.sample, rng), window.worst_case_us, window.best_case_us, None),
        )

    def describe(self) -> str:
        return (
            f"priority-inversion(window ~{self.window.nominal_us / 1000:g}ms "
            f"every {self.period_us / 1000:g}ms)"
        )


@dataclass(frozen=True)
class SensorStuckFault(FaultModel):
    """An input device freezes from ``from_us`` on.

    For level sensors (``read``) the driver-visible value sticks at
    ``stuck_value``; for edge devices (``poll``) detected events are swallowed
    — a stuck button.  ``device`` names the hardware attribute of the pack's
    device spec (``"bolus_button"``, ``"reservoir_sensor"``, ...).
    """

    kind: ClassVar[str] = "sensor-stuck"

    device: str = "bolus_button"
    stuck_value: Any = False
    from_us: int = 0

    def instrument(self, system, rng) -> None:
        simulator = system.bundle.simulator
        device = getattr(system.bundle.hardware, self.device)
        start = self.from_us
        stuck_value = self.stuck_value
        if hasattr(device, "read"):
            # Idle sensing jobs and the quiescence check read level sensors.
            system.idle_jobs_faulted = True
            original_read = device.read

            def stuck_read():
                if simulator.now >= start:
                    return stuck_value
                return original_read()

            device.read = stuck_read
        if hasattr(device, "poll"):
            original_poll = device.poll

            def stuck_poll():
                events = original_poll()
                if simulator.now >= start:
                    return []
                return events

            device.poll = stuck_poll

    def describe(self) -> str:
        return f"sensor-stuck({self.device} at {self.stuck_value!r} from {self.from_us / 1000:g}ms)"


@dataclass(frozen=True)
class SensorGlitchFault(FaultModel):
    """An input device intermittently loses detections.

    Each polled event (edge devices) or read sample (level sensors) is dropped
    — respectively replaced by the device's inactive value — with the seeded
    ``drop_probability``.
    """

    kind: ClassVar[str] = "sensor-glitch"

    device: str = "clear_alarm_button"
    drop_probability: float = 0.5
    inactive_value: Any = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")

    def instrument(self, system, rng) -> None:
        device = getattr(system.bundle.hardware, self.device)
        probability = self.drop_probability
        inactive = self.inactive_value
        if hasattr(device, "poll"):
            original_poll = device.poll

            def glitched_poll():
                return [event for event in original_poll() if rng.random() >= probability]

            device.poll = glitched_poll
        elif hasattr(device, "read"):
            # Idle sensing jobs and the quiescence check read level sensors,
            # and every read draws from the fault stream.
            system.idle_jobs_faulted = True
            original_read = device.read

            def glitched_read():
                value = original_read()
                if rng.random() < probability:
                    return inactive
                return value

            device.read = glitched_read

    def describe(self) -> str:
        return f"sensor-glitch({self.device}, drop p={self.drop_probability:g})"


#: kind -> fault class, for :func:`fault_from_dict`.
FAULT_KINDS = {
    cls.kind: cls
    for cls in (
        ClockDriftFault,
        ExecutionInflationFault,
        QueueFault,
        PriorityInversionFault,
        SensorStuckFault,
        SensorGlitchFault,
    )
}


def fault_from_dict(payload: Dict[str, Any]) -> FaultModel:
    """Rebuild one fault model from its canonical dict."""
    kind = payload.get("kind")
    try:
        cls = FAULT_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(FAULT_KINDS))
        raise ValueError(f"unknown fault kind {kind!r} (known: {known})") from None
    kwargs = {}
    for spec in fields(cls):
        if spec.name not in payload:
            continue
        value = payload[spec.name]
        # Convert only fields *declared* as JitterModel: sniffing the value's
        # shape would misread Any-typed fields (e.g. a dict stuck_value).
        if isinstance(value, dict) and "JitterModel" in str(spec.type):
            value = _jitter_from_dict(value)
        kwargs[spec.name] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A named, composable bundle of fault models.

    The empty plan is a **strict no-op**: :meth:`instrument` returns without
    touching the system, so traces and R-/M-test reports stay byte-identical
    to the un-instrumented platform (pinned by ``tests/faults/test_noop.py``).
    """

    faults: Tuple[FaultModel, ...] = ()
    name: str = "baseline"

    @property
    def empty(self) -> bool:
        return not self.faults

    def instrument(self, system, *, seed: int = 0):
        """Apply every fault of the plan to ``system`` (returned for chaining).

        Each fault draws from its own named stream of ``seed``, so adding a
        fault to a plan never perturbs the draws of the existing ones.
        """
        if not self.faults:
            return system
        source = RandomSource(seed).fork("faults")
        for index, fault in enumerate(self.faults):
            fault.instrument(system, source.stream(f"{index}:{fault.kind}"))
        return system

    def describe(self) -> str:
        if not self.faults:
            return f"{self.name}: (no faults)"
        return f"{self.name}: " + "; ".join(fault.describe() for fault in self.faults)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        return cls(
            faults=tuple(fault_from_dict(entry) for entry in payload.get("faults", ())),
            name=payload.get("name", "baseline"),
        )


def default_fault_suite() -> Tuple[FaultPlan, ...]:
    """The stock seeded fault suite, one plan per platform fault class.

    Severities are deliberately aggressive — each class is meant to be
    *detectable* by at least one GPCA requirement on at least one
    implementation scheme, which ``tests/faults/test_matrix.py`` pins.
    """
    return (
        FaultPlan((ClockDriftFault(drift=1.5),), name="clock-drift"),
        FaultPlan(
            (
                ExecutionInflationFault(
                    factor=3.0,
                    overrun=JitterModel(ms(30), ms(8), ms(8)),
                    overrun_probability=0.25,
                ),
            ),
            name="exec-inflation",
        ),
        FaultPlan((QueueFault(queue="i_events", drop_probability=0.7),), name="queue-loss"),
        FaultPlan(
            (QueueFault(queue="o_events", delay_us=ms(400), delay_probability=0.8),),
            name="queue-delay",
        ),
        FaultPlan((PriorityInversionFault(),), name="priority-inversion"),
        FaultPlan((SensorStuckFault(device="bolus_button"),), name="sensor-stuck"),
        FaultPlan(
            (SensorGlitchFault(device="clear_alarm_button", drop_probability=0.9),),
            name="sensor-glitch",
        ),
    )
