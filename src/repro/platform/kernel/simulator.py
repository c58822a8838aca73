"""Discrete-event simulation kernel.

The kernel is intentionally small: an event queue ordered by ``(time, priority,
sequence)`` plus a simulated clock.  Everything else in the platform package —
the RTOS scheduler, device drivers, the physical environment — is written as
callbacks scheduled on this kernel.

The kernel guarantees:

* events fire in non-decreasing time order;
* events scheduled for the same instant fire in ascending ``priority`` then
  insertion order (FIFO), which makes simultaneous hardware/OS interactions
  deterministic;
* a cancelled event never fires.

Hot-loop design
---------------

This kernel is the innermost loop of every test run (a single R-test run
dispatches ~30k events), so the implementation is tuned for dispatch
throughput while preserving the dispatch order — and therefore every
downstream trace and verdict — byte for byte:

* **Tuple heap entries.**  The queue holds plain ``(time, priority, sequence,
  handle, callback)`` tuples.  The sequence number is unique per entry, so
  heap comparisons resolve in C on the first differing integer and never
  reach the handle; the callback rides along so dispatch reads it straight
  out of the tuple.
* **Batched drain.**  :meth:`run_until`, the kernel's only dispatch loop,
  drains the heap in one tight loop: the heap functions and counters are
  bound to locals, and all events sharing a timestamp are dispatched in one
  pass with a single clock update per distinct instant.  The loop still pops
  entries strictly one at a time in ``(time, priority, sequence)`` order — a
  callback may insert a higher-priority event at the *current* instant and
  it must fire next — so batching changes cost, never order.
* **Lazy compaction.**  Cancelled entries stay in the heap until they either
  surface (and are skipped) or stale entries outnumber live ones, at which
  point the heap is rebuilt in place without them (see
  :meth:`_note_cancelled`).
* **Dormant re-arm.**  A periodic event whose owner has marked its handle
  :attr:`~EventHandle.dormant` (its callback is known to do nothing) is
  re-armed by :meth:`run_until` with one ``heapreplace`` and no callback.
  The heap key and the sequence draw are exactly those of the
  post-callback re-arm, so dispatch order is unchanged (see
  :meth:`schedule_periodic`).
* **Quiescent windows.**  When nothing but dormant chains and task releases
  is due, the RTOS scheduler replays the idle stretch itself and
  :meth:`skip_window` moves the kernel past it in one step, re-keying the
  entries that fired in the callback path's relative order.

The pre-rebuild kernel is preserved verbatim in
``repro._reference.seed_engine``; the byte-identity tests run whole systems
on both and compare serialized reports.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional, Tuple

from .time import SimClock, format_us


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running a broken queue)."""


class EventHandle:
    """Handle to a scheduled event; supports cancellation and inspection.

    ``dormant`` is a hint the owner of a periodic handle (one returned by
    :meth:`Simulator.schedule_periodic`) may set while its callback is known
    to be a no-op; see :meth:`Simulator.schedule_periodic`.  It must not be
    set on a one-shot handle.
    """

    __slots__ = (
        "time_us",
        "priority",
        "callback",
        "label",
        "period_us",
        "dormant",
        "_cancelled",
        "_fired",
        "_owner",
    )

    def __init__(
        self,
        time_us: int,
        priority: int,
        callback: Callable[[], None],
        label: str,
        owner: "Optional[Simulator]" = None,
    ) -> None:
        self.time_us = time_us
        self.priority = priority
        self.callback = callback
        self.label = label
        self.period_us = None
        self.dormant = False
        self._cancelled = False
        self._fired = False
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        # A dormant entry is re-armed without ever being popped, so the mark
        # must go or the cancelled chain would run forever.
        self.dormant = False
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
        return f"EventHandle({self.label!r} @ {format_us(self.time_us)}, {state})"


#: A heap entry: ``(time_us, priority, sequence, handle, callback)``.  Sequence
#: numbers are unique, so tuple comparison never reaches the handle.  The
#: callback rides in the tuple so dispatch skips one attribute load per event;
#: a stale entry (cancelled, or left behind by a recycled handle) is never
#: dispatched, because only *fired* handles are recycled and their entries
#: have already been popped.
_QueueEntry = Tuple[int, int, int, EventHandle, Callable[[], None]]


class Simulator:
    """The discrete-event simulator.

    Components schedule zero-argument callbacks at absolute or relative times
    and :meth:`run_until` dispatches them in time order.
    """

    #: Lazy-compaction trigger: rebuild the heap once at least this many
    #: cancelled entries linger *and* they outnumber the live ones.
    _COMPACTION_MIN_STALE = 64

    def __init__(self, start_us: int = 0) -> None:
        self._clock = SimClock(start_us)
        self._queue: List[_QueueEntry] = []
        self._sequence = 0
        self._processed = 0
        self._stale = 0  # cancelled entries still sitting in the heap
        self._cancellations = 0
        self._compactions = 0
        self._dormant_rearms = 0
        self._window_events = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._clock._now_us

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (diagnostic)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        Maintained as a live counter (queue length minus lingering cancelled
        entries), so introspection is O(1) instead of scanning the heap.
        """
        return len(self._queue) - self._stale

    @property
    def cancellations(self) -> int:
        """Number of pending events cancelled so far (diagnostic)."""
        return self._cancellations

    @property
    def compactions(self) -> int:
        """Number of lazy heap rebuilds triggered so far (diagnostic)."""
        return self._compactions

    def counters(self) -> dict:
        """A telemetry snapshot of the kernel's lifetime counters.

        The counters are maintained unconditionally (single integer adds on
        paths that already do bookkeeping; the batched dispatch loop counts
        in locals flushed on exit), so this is the pull-collection surface
        for :mod:`repro.obs`: the kernel never calls telemetry; telemetry
        reads the kernel.  ``kernel_events_processed`` includes the
        ``kernel_dormant_rearms`` (see :meth:`schedule_periodic`) and the
        ``kernel_window_events``, the events a quiescent window accounted
        for without dispatching them (see :meth:`skip_window`).
        """
        return {
            "kernel_events_processed": self._processed,
            "kernel_cancellations": self._cancellations,
            "kernel_compactions": self._compactions,
            "kernel_dormant_rearms": self._dormant_rearms,
            "kernel_window_events": self._window_events,
        }

    def _note_cancelled(self) -> None:
        """A pending handle was cancelled; reclaim the heap when stale entries dominate.

        Preemption-heavy runs cancel one completion event per preemption; left
        unreclaimed those entries bloat the heap and slow every push/pop.  The
        rebuild filters cancelled entries and re-heapifies, which preserves the
        ``(time, priority, sequence)`` dispatch order exactly.  It works in
        place: a running :meth:`run_until` drains a local alias of the queue
        list, and a cancellation inside a callback can land here.
        """
        self._stale += 1
        self._cancellations += 1
        queue = self._queue
        if self._stale >= self._COMPACTION_MIN_STALE and self._stale * 2 > len(queue):
            queue[:] = [entry for entry in queue if not entry[3]._cancelled]
            heapq.heapify(queue)
            self._stale = 0
            self._compactions += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time_us: int,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
        reuse: Optional[EventHandle] = None,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time_us``.

        ``priority`` breaks ties between events at the same instant (lower
        fires first).  Scheduling in the past raises :class:`SimulationError`.

        ``reuse`` may pass back a handle previously returned by this simulator
        that has *fired* and is referenced nowhere else; the kernel then
        recycles the handle object instead of allocating a new one.  Recycling
        is purely an allocation optimisation — sequence numbers, dispatch
        order and the returned handle's observable state are identical either
        way.  Periodic re-arm chains (device sampling, task releases) are the
        intended users: exactly one of their events is in flight at a time, so
        the fired handle is always free for the next period.  A cancelled or
        still-pending handle is never recycled (its heap entry may still
        surface), so passing one is safe and simply allocates.
        """
        if time_us < self._clock._now_us:
            raise SimulationError(
                f"cannot schedule event {label!r} at {format_us(time_us)} "
                f"in the past (now={format_us(self._clock._now_us)})"
            )
        if reuse is not None and reuse._fired and not reuse._cancelled:
            handle = reuse
            handle.time_us = time_us
            handle.priority = priority
            handle.callback = callback
            handle.label = label
            handle.dormant = False
            handle._fired = False
        else:
            handle = EventHandle(time_us, priority, callback, label, self)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time_us, priority, sequence, handle, callback))
        return handle

    def schedule(
        self,
        delay_us: int,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
        reuse: Optional[EventHandle] = None,
    ) -> EventHandle:
        """Schedule ``callback`` after a relative delay (``delay_us`` >= 0).

        See :meth:`schedule_at` for the ``reuse`` recycling contract.
        """
        if delay_us < 0:
            raise SimulationError(f"negative delay {delay_us} for event {label!r}")
        time_us = self._clock._now_us + delay_us
        if reuse is not None and reuse._fired and not reuse._cancelled:
            handle = reuse
            handle.time_us = time_us
            handle.priority = priority
            handle.callback = callback
            handle.label = label
            handle.dormant = False
            handle._fired = False
        else:
            handle = EventHandle(time_us, priority, callback, label, self)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time_us, priority, sequence, handle, callback))
        return handle

    def schedule_periodic(
        self,
        delay_us: int,
        period_us: int,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay_us``, then every ``period_us``.

        The kernel re-queues the same handle immediately after each firing —
        before any other event is popped — with a freshly drawn sequence
        number.  A sequence number is therefore consumed at exactly the point
        an explicit tail re-arm inside the callback would consume one, so a
        periodic event is dispatch-order-identical to a callback whose *last*
        statement reschedules itself; it just skips the per-period Python
        ``schedule`` call.  Device sampling loops are the intended users.

        Cancelling the returned handle between firings stops the chain.
        (Cancelling from *inside* the callback does not — the handle is marked
        fired during dispatch, which makes ``cancel`` a no-op — so periodic
        events must be stopped by external code, which is how the device
        drivers use them.)

        **Dormancy.**  The owner may set ``handle.dormant = True`` while the
        callback is known to do nothing, and must clear it as soon as that
        stops holding.  The mark is read when the entry reaches the top of
        the heap; :meth:`run_until` then re-arms the entry in place with one
        ``heapreplace`` instead of popping it, calling the callback and
        pushing it back.  The re-arm draws the next sequence number at the
        point the post-callback re-arm draws it, and a no-op callback
        schedules nothing in between, so heap keys — and therefore dispatch
        order, including every same-instant tie — are those of the callback
        path.  Dormant re-arms count in :attr:`events_processed`;
        ``kernel_dormant_rearms`` in :meth:`counters` says how many there
        were.  :meth:`EventHandle.cancel` clears the mark, and a handle
        recycled through ``reuse`` never inherits it.
        """
        if delay_us < 0:
            raise SimulationError(f"negative delay {delay_us} for event {label!r}")
        if period_us <= 0:
            raise SimulationError(f"non-positive period {period_us} for event {label!r}")
        time_us = self._clock._now_us + delay_us
        handle = EventHandle(time_us, priority, callback, label, self)
        handle.period_us = period_us
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time_us, priority, sequence, handle, callback))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, time_us: int) -> None:
        """Run events up to and including ``time_us`` and advance the clock there.

        Events scheduled exactly at ``time_us`` are dispatched.  The clock ends
        at ``time_us`` even if the queue drains earlier, so periodic activities
        resumed later see a consistent notion of "now".
        """
        clock = self._clock
        if time_us < clock._now_us:
            raise SimulationError(
                f"run_until target {format_us(time_us)} is in the past "
                f"(now={format_us(clock._now_us)})"
            )
        queue = self._queue
        pop = heappop
        push = heappush
        replace = heapreplace
        processed = self._processed
        dormant = 0
        try:
            # Tight batched drain.  Entries surface strictly in (time,
            # priority, sequence) order; the heap is re-examined after every
            # callback because callbacks schedule (and cancel) freely —
            # including at the instant being drained.  The clock writes are
            # direct slot assignments: heap order guarantees monotonicity, so
            # advance_to's backwards check is redundant here.  The processed
            # counter accumulates in a local and is flushed on exit; nothing
            # reads it mid-run.  Periodic handles are re-queued straight after
            # their callback returns — the exact point a tail re-arm would
            # draw its sequence number.  The current time is mirrored in a
            # local (only this loop advances the clock).  A dormant entry is
            # re-armed in place without touching the clock: nothing runs at
            # its instant, and the next callback or the final clock write
            # below sets the time.
            now_us = clock._now_us
            while queue:
                entry = queue[0]
                entry_time = entry[0]
                if entry_time > time_us:
                    break
                handle = entry[3]
                if handle.dormant:
                    next_time = entry_time + handle.period_us
                    handle.time_us = next_time
                    sequence = self._sequence
                    self._sequence = sequence + 1
                    replace(queue, (next_time, entry[1], sequence, handle, entry[4]))
                    dormant += 1
                    continue
                pop(queue)
                if handle._cancelled:
                    self._stale -= 1
                    continue
                if entry_time > now_us:
                    now_us = clock._now_us = entry_time
                handle._fired = True
                processed += 1
                entry[4]()
                period = handle.period_us
                if period is not None and not handle._cancelled:
                    handle._fired = False
                    next_time = entry_time + period
                    handle.time_us = next_time
                    sequence = self._sequence
                    self._sequence = sequence + 1
                    push(queue, (next_time, handle.priority, sequence, handle, entry[4]))
            if now_us < time_us:
                clock._now_us = time_us
        finally:
            self._processed = processed + dormant
            self._dormant_rearms += dormant

    # ------------------------------------------------------------------
    # Quiescent windows
    # ------------------------------------------------------------------
    def window_scan(self, releases: List[EventHandle]) -> Tuple[Optional[int], List[int]]:
        """Survey the queue for a quiescent window over ``releases``.

        ``releases`` are pending one-shot handles (an RTOS's task releases).
        Returns the earliest instant of an entry that is neither dormant nor
        one of them — the window can reach no further — or None when there
        is none, together with the sequence number of each release's entry.
        A queue still holding cancelled entries offers no window (the horizon
        is now): a window's own cancellations could otherwise trigger a
        compaction :meth:`skip_window` does not count.
        """
        index = {handle: position for position, handle in enumerate(releases)}
        sequences = [0] * len(releases)
        horizon = self._clock._now_us if self._stale else None
        for time_us, _, sequence, handle, _ in self._queue:
            position = index.get(handle)
            if position is not None:
                sequences[position] = sequence
            elif not handle.dormant and (horizon is None or time_us < horizon):
                horizon = time_us
        return horizon, sequences

    def skip_window(
        self,
        stop_us: int,
        releases: Dict[EventHandle, Tuple[int, int]],
        events: int,
        cancellations: int,
    ) -> None:
        """Move the queue past a quiescent window its owner replayed.

        Every entry before ``stop_us`` must be a dormant chain or one of
        ``releases``, which maps each release handle that fired in the window
        to ``(next_time_us, period_us)``.  Dormant chains are advanced to
        their first instant at or after ``stop_us`` (each skipped instant
        counts as a dormant re-arm), releases to the given instant, and
        ``events`` and ``cancellations`` — the window's fired releases and
        completions, and its preemptions — are added to the counters.

        On the callback path an entry's sequence number is drawn at its last
        firing, so the moved entries are re-keyed with fresh numbers, above
        every queued one, in the order of their last draws: among entries
        due at the same instant, the one with the longer period (the earlier
        last firing) comes first; equal periods fired in lockstep, and the
        entry whose first firing in the window came later kept its pre-window
        key longest, so it comes first; ties beyond that keep their old
        order.  Only relative order is observable, since sequence numbers
        are private to the kernel.
        """
        kept = []
        moved = []
        rearms = 0
        for entry in self._queue:
            time_us, priority, sequence, handle, callback = entry
            release = releases.get(handle)
            if release is not None:
                next_us, period = release
            elif time_us < stop_us:
                if not handle.dormant:
                    raise SimulationError(
                        f"event {handle.label!r} at {format_us(time_us)} is due "
                        f"inside a window ending at {format_us(stop_us)}"
                    )
                period = handle.period_us
                count = (stop_us - time_us + period - 1) // period
                rearms += count
                next_us = time_us + count * period
            else:
                kept.append(entry)
                continue
            handle.time_us = next_us
            moved.append((next_us, priority, -period, -time_us, sequence, handle, callback))
        moved.sort()
        sequence = self._sequence
        for next_us, priority, _, _, _, handle, callback in moved:
            kept.append((next_us, priority, sequence, handle, callback))
            sequence += 1
        self._sequence = sequence
        heapq.heapify(kept)
        self._queue[:] = kept
        self._processed += events + rearms
        self._dormant_rearms += rearms
        self._cancellations += cancellations
        self._window_events += events + rearms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={format_us(self.now)}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )
