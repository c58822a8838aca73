"""Verbatim seed-path kernel and trace implementations (equivalence oracle).

These classes are byte-for-byte the implementations the repository shipped
before the hot-loop runtime engine rebuild, renamed ``Seed*`` and kept under
``repro._reference`` so that:

* the byte-identity property tests can run a whole implemented system on the
  *seed* engine and assert the optimised engine produces ``to_json()``-
  identical R-/M-reports, and
* ``benchmarks/bench_runtime.py`` can measure honest before/after numbers in
  one process, against the actual seed code rather than a reconstruction.

Do not "fix" or optimise anything in this module: its whole value is that it
does not change.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.four_variables import Event, EventKind
from ..integration.base import EngineProfile
from ..platform.devices.device import EventInputDevice, OutputDevice, StateInputDevice
from ..platform.kernel.simulator import SimulationError
from ..platform.kernel.time import SimClock, format_us
from ..platform.rtos.directives import Compute, Receive, Send
from ..platform.rtos.scheduler import RTOSScheduler, SchedulerError
from ..platform.rtos.task import Job, Task


class SeedClock(SimClock):
    """The seed kernel's clock: read through :attr:`now`, moved by :meth:`advance_to`.

    The production kernel writes the shared slot directly (heap order keeps
    it monotonic); this clock keeps the seed kernel's backwards-move check.
    """

    __slots__ = ()

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now_us

    def advance_to(self, instant_us: int) -> None:
        """Move the clock forward to ``instant_us``.

        Raises :class:`ValueError` if the target is in the past.
        """
        if instant_us < self._now_us:
            raise ValueError(
                f"clock cannot move backwards: now={self._now_us}, "
                f"target={instant_us}"
            )
        self._now_us = int(instant_us)


@dataclass(order=True)
class _QueueEntry:
    time_us: int
    priority: int
    sequence: int
    handle: "SeedEventHandle" = field(compare=False)


class SeedEventHandle:
    """Handle to a scheduled event; supports cancellation and inspection."""

    __slots__ = ("time_us", "priority", "callback", "label", "_cancelled", "_fired", "_owner")

    def __init__(
        self,
        time_us: int,
        priority: int,
        callback: Callable[[], None],
        label: str,
        owner: "Optional[SeedSimulator]" = None,
    ) -> None:
        self.time_us = time_us
        self.priority = priority
        self.callback = callback
        self.label = label
        self._cancelled = False
        self._fired = False
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        """True when the event is still scheduled to fire."""
        return not self._cancelled and not self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"SeedEventHandle({self.label!r} @ {format_us(self.time_us)}, {state})"


class SeedSimulator:
    """The seed discrete-event simulator (one event dispatched per ``step``)."""

    _COMPACTION_MIN_STALE = 64

    def __init__(self, start_us: int = 0) -> None:
        self._clock = SeedClock(start_us)
        self._queue: List[_QueueEntry] = []
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._stop_requested = False
        self._stale = 0  # cancelled entries still sitting in the heap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._clock.now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (diagnostic)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue."""
        return len(self._queue) - self._stale

    def _note_cancelled(self) -> None:
        self._stale += 1
        if self._stale >= self._COMPACTION_MIN_STALE and self._stale * 2 > len(self._queue):
            self._queue = [entry for entry in self._queue if not entry.handle.cancelled]
            heapq.heapify(self._queue)
            self._stale = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The only permitted deviation from the shipped seed code: ``priority``
    # and ``label`` are positional-or-keyword (the shipped code made them
    # keyword-only) and the optimised kernel's ``reuse`` recycling hint is
    # accepted and ignored.  Both changes are call-signature compatibility
    # shims for the shared device/scheduler layers; neither affects a single
    # scheduled event.
    def schedule_at(
        self,
        time_us: int,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
        reuse: Optional[SeedEventHandle] = None,
    ) -> SeedEventHandle:
        if time_us < self._clock.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {format_us(time_us)} "
                f"in the past (now={format_us(self._clock.now)})"
            )
        handle = SeedEventHandle(time_us, priority, callback, label, owner=self)
        entry = _QueueEntry(time_us, priority, self._sequence, handle)
        self._sequence += 1
        heapq.heappush(self._queue, entry)
        return handle

    def schedule(
        self,
        delay_us: int,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
        reuse: Optional[SeedEventHandle] = None,
    ) -> SeedEventHandle:
        if delay_us < 0:
            raise SimulationError(f"negative delay {delay_us} for event {label!r}")
        return self.schedule_at(self._clock.now + delay_us, callback, priority=priority, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._stop_requested = True

    def step(self) -> bool:
        while self._queue:
            entry = heapq.heappop(self._queue)
            handle = entry.handle
            if handle.cancelled:
                self._stale -= 1
                continue
            self._clock.advance_to(entry.time_us)
            handle._fired = True
            self._processed += 1
            handle.callback()
            return True
        return False

    def run_until(self, time_us: int) -> None:
        if time_us < self._clock.now:
            raise SimulationError(
                f"run_until target {format_us(time_us)} is in the past "
                f"(now={format_us(self._clock.now)})"
            )
        self._running = True
        self._stop_requested = False
        try:
            while self._queue and not self._stop_requested:
                entry = self._queue[0]
                if entry.handle.cancelled:
                    heapq.heappop(self._queue)
                    self._stale -= 1
                    continue
                if entry.time_us > time_us:
                    break
                self.step()
            if not self._stop_requested and self._clock.now < time_us:
                self._clock.advance_to(time_us)
        finally:
            self._running = False

    def run(self, max_events: int = 1_000_000) -> None:
        self._running = True
        self._stop_requested = False
        fired = 0
        try:
            while not self._stop_requested:
                if fired >= max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; likely a livelock"
                    )
                if not self.step():
                    break
                fired += 1
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SeedSimulator(now={format_us(self.now)}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )


class _IndexBucket:
    """Trace positions of one index slice plus their (sorted) timestamps."""

    __slots__ = ("positions", "times")

    def __init__(self) -> None:
        self.positions: List[int] = []
        self.times: List[int] = []

    def add(self, position: int, time_us: int) -> None:
        self.positions.append(position)
        self.times.append(time_us)

    def window(self, after_us: Optional[int], before_us: Optional[int]) -> Tuple[int, int]:
        lo = 0 if after_us is None else bisect_left(self.times, after_us)
        hi = len(self.times) if before_us is None else bisect_right(self.times, before_us)
        return lo, hi


_EMPTY_BUCKET = _IndexBucket()


class SeedTrace:
    """The seed object-per-event trace with lazily built bisect indexes."""

    __slots__ = (
        "_events",
        "_timestamps",
        "_by_kind",
        "_by_variable",
        "_by_kind_variable",
        "_indexed_upto",
        "_events_view",
    )

    def __init__(self, events: Optional[Iterable[Event]] = None) -> None:
        self._events: List[Event] = []
        self._timestamps: List[int] = []
        self._by_kind: Dict[EventKind, _IndexBucket] = {}
        self._by_variable: Dict[str, _IndexBucket] = {}
        self._by_kind_variable: Dict[Tuple[EventKind, str], _IndexBucket] = {}
        self._indexed_upto = 0
        self._events_view: Optional[Tuple[Event, ...]] = None
        if events is not None:
            self.extend(events)

    @classmethod
    def from_sorted(cls, events: Iterable[Event]) -> "SeedTrace":
        trace = cls()
        trace._events = list(events)
        trace._timestamps = [event.timestamp_us for event in trace._events]
        return trace

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, event: Event) -> None:
        timestamps = self._timestamps
        if timestamps and event.timestamp_us < timestamps[-1]:
            raise ValueError(
                "events must be appended in non-decreasing timestamp order: "
                f"{event.timestamp_us} < {timestamps[-1]}"
            )
        self._events.append(event)
        timestamps.append(event.timestamp_us)
        self._events_view = None

    def extend(self, events: Iterable[Event]) -> None:
        own_events = self._events
        timestamps = self._timestamps
        last = timestamps[-1] if timestamps else None
        for event in events:
            if last is not None and event.timestamp_us < last:
                raise ValueError(
                    "events must be appended in non-decreasing timestamp order: "
                    f"{event.timestamp_us} < {last}"
                )
            last = event.timestamp_us
            own_events.append(event)
            timestamps.append(last)
        self._events_view = None

    def _ensure_index(self) -> None:
        events = self._events
        upto = self._indexed_upto
        count = len(events)
        if upto == count:
            return
        by_kind = self._by_kind
        by_variable = self._by_variable
        by_kind_variable = self._by_kind_variable
        for position in range(upto, count):
            event = events[position]
            time_us = event.timestamp_us
            kind = event.kind
            variable = event.variable
            bucket = by_kind.get(kind)
            if bucket is None:
                bucket = by_kind[kind] = _IndexBucket()
            bucket.add(position, time_us)
            bucket = by_variable.get(variable)
            if bucket is None:
                bucket = by_variable[variable] = _IndexBucket()
            bucket.add(position, time_us)
            key = (kind, variable)
            bucket = by_kind_variable.get(key)
            if bucket is None:
                bucket = by_kind_variable[key] = _IndexBucket()
            bucket.add(position, time_us)
        self._indexed_upto = count

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> Sequence[Event]:
        if self._events_view is None:
            self._events_view = tuple(self._events)
        return self._events_view

    @property
    def duration_us(self) -> int:
        if not self._timestamps:
            return 0
        return self._timestamps[-1] - self._timestamps[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _bucket_for(self, kind: Optional[EventKind], variable: Optional[str]) -> Optional[_IndexBucket]:
        if kind is None and variable is None:
            return None
        self._ensure_index()
        if kind is not None:
            if variable is not None:
                return self._by_kind_variable.get((kind, variable), _EMPTY_BUCKET)
            return self._by_kind.get(kind, _EMPTY_BUCKET)
        return self._by_variable.get(variable, _EMPTY_BUCKET)

    def select(
        self,
        kind: Optional[EventKind] = None,
        variable: Optional[str] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
        after_us: Optional[int] = None,
        before_us: Optional[int] = None,
    ) -> List[Event]:
        bucket = self._bucket_for(kind, variable)
        if bucket is None:
            lo = 0 if after_us is None else bisect_left(self._timestamps, after_us)
            hi = len(self._timestamps) if before_us is None else bisect_right(self._timestamps, before_us)
            selected = self._events[lo:hi]
        else:
            lo, hi = bucket.window(after_us, before_us)
            events = self._events
            selected = [events[position] for position in bucket.positions[lo:hi]]
        if predicate is not None:
            return [event for event in selected if predicate(event)]
        return selected

    def first(
        self,
        kind: Optional[EventKind] = None,
        variable: Optional[str] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
        after_us: Optional[int] = None,
        before_us: Optional[int] = None,
    ) -> Optional[Event]:
        bucket = self._bucket_for(kind, variable)
        events = self._events
        if bucket is None:
            lo = 0 if after_us is None else bisect_left(self._timestamps, after_us)
            hi = len(self._timestamps) if before_us is None else bisect_right(self._timestamps, before_us)
            for index in range(lo, hi):
                event = events[index]
                if predicate is None or predicate(event):
                    return event
            return None
        lo, hi = bucket.window(after_us, before_us)
        positions = bucket.positions
        for index in range(lo, hi):
            event = events[positions[index]]
            if predicate is None or predicate(event):
                return event
        return None

    def select_kinds(
        self,
        kinds: Iterable[EventKind],
        after_us: Optional[int] = None,
        before_us: Optional[int] = None,
    ) -> List[Event]:
        self._ensure_index()
        slices: List[List[int]] = []
        for kind in dict.fromkeys(kinds):
            bucket = self._by_kind.get(kind)
            if bucket is None:
                continue
            lo, hi = bucket.window(after_us, before_us)
            if lo < hi:
                slices.append(bucket.positions[lo:hi])
        events = self._events
        if not slices:
            return []
        if len(slices) == 1:
            return [events[position] for position in slices[0]]
        return [events[position] for position in heapq.merge(*slices)]

    def restricted_to(self, kinds: Iterable[EventKind]) -> "SeedTrace":
        return SeedTrace.from_sorted(self.select_kinds(kinds))

    def value_changes(self, kind: EventKind, variable: str) -> List[Tuple[int, Any]]:
        changes: List[Tuple[int, Any]] = []
        previous: Any = object()
        for event in self.select(kind=kind, variable=variable):
            if event.value != previous:
                changes.append((event.timestamp_us, event.value))
                previous = event.value
        return changes


class SeedTraceRecorder:
    """The seed recorder: one :class:`Event` object constructed per record."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self.trace = SeedTrace()

    @property
    def now(self) -> int:
        return self._clock()

    def _record(self, kind: EventKind, variable: str, value: Any, **meta: Any) -> Event:
        event = Event(kind, variable, value, self._clock(), dict(meta))
        self.trace.append(event)
        return event

    def record_m(self, variable: str, value: Any, **meta: Any) -> Event:
        return self._record(EventKind.M, variable, value, **meta)

    def record_i(self, variable: str, value: Any, **meta: Any) -> Event:
        return self._record(EventKind.I, variable, value, **meta)

    def record_o(self, variable: str, value: Any, **meta: Any) -> Event:
        return self._record(EventKind.O, variable, value, **meta)

    def record_c(self, variable: str, value: Any, **meta: Any) -> Event:
        return self._record(EventKind.C, variable, value, **meta)

    def record_transition_start(self, transition_id: str, **meta: Any) -> Event:
        return self._record(EventKind.TRANSITION_START, transition_id, None, **meta)

    def record_transition_end(self, transition_id: str, **meta: Any) -> Event:
        return self._record(EventKind.TRANSITION_END, transition_id, None, **meta)


# ----------------------------------------------------------------------
# Seed RTOS scheduler
# ----------------------------------------------------------------------
class SeedRTOSScheduler(RTOSScheduler):
    """The pre-rebuild scheduler hot path, frozen method for method.

    Construction, task registration, queue semantics and every invariant are
    shared with the production scheduler (inherited).  The methods below are
    the bodies the repository shipped before the hot-loop rebuild — per-call
    label formatting, per-segment completion closures, the isinstance
    directive chain and the factored-out dispatch round included — so the
    seed engine measures (and reproduces) the honest pre-rebuild cost of the
    whole platform stack, not just the kernel.  They are byte-for-byte those
    bodies, except that the branches for paths the RTOS no longer has
    (blocking directives, semaphores, aperiodic activation) are gone; every
    input that can still reach them behaves as before.
    """

    def _schedule_release(self, task: Task, when_us: int) -> None:
        when_us = max(when_us, self.simulator.now)
        self.simulator.schedule_at(
            when_us, lambda: self._periodic_release(task), label=f"release:{task.name}"
        )

    def _periodic_release(self, task: Task) -> None:
        self._release(task)
        assert task.period_us is not None
        self._schedule_release(task, self.simulator.now + task.period_us)

    def _release(self, task: Task) -> None:
        if task.current_job is not None:
            task.stats.deadline_misses += 1
            return
        job = Job(task, task.job_factory(), self.simulator.now)
        task.current_job = job
        task.stats.activations += 1
        self._make_ready(job)
        self._schedule_dispatch()

    def _pop_ready(self) -> Optional[Job]:
        if not self._ready:
            return None
        best_index = 0
        best_priority = self._ready[0].task.priority
        for index, job in enumerate(self._ready[1:], start=1):
            if job.task.priority > best_priority:
                best_priority = job.task.priority
                best_index = index
        return self._ready.pop(best_index)

    def _highest_ready_priority(self) -> Optional[int]:
        if not self._ready:
            return None
        return max(job.task.priority for job in self._ready)

    def _higher_priority_ready(self, priority: int) -> bool:
        highest = self._highest_ready_priority()
        return highest is not None and highest > priority

    def _schedule_dispatch(self) -> None:
        if self._in_dispatch:
            self._dispatch_again = True
            return
        self._in_dispatch = True
        try:
            while True:
                self._dispatch_again = False
                self._dispatch_once()
                if not self._dispatch_again:
                    break
        finally:
            self._in_dispatch = False

    def _dispatch_once(self) -> None:
        if self._running is not None:
            if self._higher_priority_ready(self._running.task.priority):
                self._preempt(self._running)
            else:
                return
        while self._running is None:
            job = self._pop_ready()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        task = job.task
        while True:
            if job.pending_compute_us is None:
                status = self._advance(job)
                if status == "finished" or status == "blocked":
                    return
                if status == "continue":
                    if self._higher_priority_ready(task.priority):
                        self._make_ready(job, front=True)
                        return
                    continue
            if job.pending_compute_us == 0:
                job.pending_compute_us = None
                continue
            if self._higher_priority_ready(task.priority):
                self._make_ready(job, front=True)
                return
            self._start_compute(job)
            return

    def _advance(self, job: Job) -> str:
        try:
            directive = job.generator.send(job.send_value)
        except StopIteration:
            self._finish_job(job)
            return "finished"
        job.send_value = None

        if isinstance(directive, Compute):
            job.pending_compute_us = directive.duration_us
            return "compute"

        if isinstance(directive, Send):
            job.send_value = directive.queue.send(directive.item)
            return "continue"

        if isinstance(directive, Receive):
            message = directive.queue.receive_nowait()
            if message is not None:
                job.send_value = message
                return "continue"
            job.send_value = None
            return "continue"

        raise SchedulerError(
            f"task {job.task.name!r} yielded unsupported directive {directive!r}"
        )

    def _start_compute(self, job: Job) -> None:
        task = job.task
        if self._last_dispatched_task is not task and self.context_switch_us:
            job.pending_compute_us = (job.pending_compute_us or 0) + self.context_switch_us
        job.segment_started_at_us = self.simulator.now
        self._running = job
        self._last_dispatched_task = task
        job.completion_handle = self.simulator.schedule(
            job.pending_compute_us or 0,
            lambda: self._complete_segment(job),
            label=f"compute:{task.name}",
        )

    def _complete_segment(self, job: Job) -> None:
        task = job.task
        started = (
            job.segment_started_at_us
            if job.segment_started_at_us is not None
            else self.simulator.now
        )
        task.stats.cpu_time_us += self.simulator.now - started
        job.pending_compute_us = None
        job.segment_started_at_us = None
        job.completion_handle = None
        job.send_value = None
        self._running = None
        self._make_ready(job, front=True)
        self._schedule_dispatch()

    def _preempt(self, job: Job) -> None:
        task = job.task
        if job.completion_handle is not None:
            job.completion_handle.cancel()
            job.completion_handle = None
        started = (
            job.segment_started_at_us
            if job.segment_started_at_us is not None
            else self.simulator.now
        )
        elapsed = self.simulator.now - started
        task.stats.cpu_time_us += elapsed
        task.stats.preemptions += 1
        job.pending_compute_us = max(0, (job.pending_compute_us or 0) - elapsed)
        job.segment_started_at_us = None
        self._running = None
        self._make_ready(job, front=True)


# ----------------------------------------------------------------------
# Seed device drivers
# ----------------------------------------------------------------------
class _SeedEventInputSampling:
    """Pre-rebuild ``EventInputDevice`` driver loop (per-call label formatting,
    no re-arm handle recycling)."""

    def start(self) -> None:
        if self._sampling_started:
            return
        self._sampling_started = True
        self.simulator.schedule(
            self.sampling_offset_us, self._sample, label=f"sample:{self.name}"
        )

    def _sample(self) -> None:
        if self._pending_edges:
            latency = self.conversion_latency.sample(self._rng)
            self.simulator.schedule(
                latency,
                lambda edges=list(self._pending_edges): self._latch(edges),
                label=f"latch:{self.name}",
            )
            self._pending_edges.clear()
        self.simulator.schedule(self.sampling_period_us, self._sample, label=f"sample:{self.name}")


class _SeedStateInputSampling:
    """Pre-rebuild ``StateInputDevice`` driver loop: every sample schedules a
    latch event, changed value or not."""

    def start(self) -> None:
        if self._sampling_started:
            return
        self._sampling_started = True
        self.simulator.schedule(self.sampling_offset_us, self._sample, label=f"sample:{self.name}")

    def _sample(self) -> None:
        value = self._physical_value
        latency = self.conversion_latency.sample(self._rng)
        self.simulator.schedule(
            latency, lambda v=value: self._latch(v), label=f"latch:{self.name}"
        )
        self.simulator.schedule(self.sampling_period_us, self._sample, label=f"sample:{self.name}")

    def _latch(self, value: Any) -> None:
        self._latched_value = value


class _SeedOutputWrite:
    """Pre-rebuild ``OutputDevice`` write path (per-call label formatting)."""

    def write(self, value: Any) -> None:
        self.writes += 1
        self._commanded_value = value
        latency = self.actuation_latency.sample(self._rng)
        self.simulator.schedule(latency, lambda v=value: self._apply(v), label=f"actuate:{self.name}")


_SEED_DEVICE_CLASSES: Dict[type, type] = {}


def seed_device_class(cls: type) -> type:
    """Map a concrete device class to its seed-behaviour variant (cached).

    The variant subclasses the production class with the pre-rebuild driver
    methods installed ahead of it in the MRO, so construction parameters and
    everything outside the hot loop stay shared.
    """
    wrapped = _SEED_DEVICE_CLASSES.get(cls)
    if wrapped is None:
        if issubclass(cls, EventInputDevice):
            mixin = _SeedEventInputSampling
        elif issubclass(cls, StateInputDevice):
            mixin = _SeedStateInputSampling
        elif issubclass(cls, OutputDevice):
            mixin = _SeedOutputWrite
        else:
            _SEED_DEVICE_CLASSES[cls] = cls
            return cls
        wrapped = type(f"Seed{cls.__name__}", (mixin, cls), {"__module__": __name__})
        _SEED_DEVICE_CLASSES[cls] = wrapped
    return wrapped


#: The seed engine as an injectable profile (see ``build_pack_bundle``):
#: pre-rebuild kernel, trace recorder, RTOS scheduler and device drivers.
SEED_ENGINE = EngineProfile(
    name="seed",
    simulator_factory=SeedSimulator,
    recorder_factory=SeedTraceRecorder,
    scheduler_class=SeedRTOSScheduler,
    device_wrapper=seed_device_class,
)
