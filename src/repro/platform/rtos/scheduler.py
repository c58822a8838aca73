"""Preemptive fixed-priority scheduler (FreeRTOS-like) on the DES kernel.

The scheduler implements the subset of RTOS behaviour the paper's three
implementation schemes rely on:

* periodic task releases with offsets;
* fixed-priority preemptive scheduling (larger number = higher priority,
  FreeRTOS convention);
* FIFO ordering among equal-priority ready tasks;
* non-blocking FIFO-queue send and receive;
* optional context-switch overhead.

Every task is periodic and no job ever blocks: a job is ready, running or
finished.  Task bodies are generators yielding
:mod:`repro.platform.rtos.directives`; plain Python between yields executes in
zero simulated time, so *all* CPU time consumed by a task is explicit in its
``Compute`` segments.  That property is what lets the M-testing layer
attribute wall-clock delays to scheduling effects rather than to hidden
modelling artefacts.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heapreplace
from math import inf, lcm
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..kernel.simulator import Simulator
from .directives import Compute, Receive, Send
from .queue import MessageQueue
from .task import Job, Task


class SchedulerError(RuntimeError):
    """Raised on scheduler misuse (duplicate task names, bad directives, ...)."""


class NullSchedulerObserver:
    """The default (disabled) scheduler observer: every hook is a no-op.

    The observability layer replaces ``scheduler.observer`` with a collector
    when span timelines are requested (``repro profile``); the scheduler
    itself never knows whether anyone is listening.  The hooks fire on the
    per-segment paths only — completion, preemption, deadline miss — never
    inside the per-directive loop, and they receive the simulated clock's
    values, so an attached observer cannot perturb the simulation.
    """

    __slots__ = ()

    def segment(self, task_name: str, start_us: int, end_us: int, preempted: bool) -> None:
        """A compute segment ended (completed or preempted) on the CPU."""

    def deadline_miss(self, task_name: str, at_us: int) -> None:
        """A task missed its deadline (skipped release or late completion)."""


#: Module-level null sink shared by every scheduler instance.
NULL_SCHEDULER_OBSERVER = NullSchedulerObserver()

# What a group plan's piece of CPU time does once it starts: a same-instant
# release preempts it before any time elapses; it completes and its job has
# segments left; it completes its job's last segment.  A job without segments
# is one ``_EMPTY`` piece, ending the instant it is dispatched.
_PREEMPTED, _COMPLETES, _FINISHES, _EMPTY = range(4)


class _GroupPlan:
    """How a confined release group runs, fixed before any of its draws.

    ``ops`` lists the group's pieces in the order the callback path runs them,
    each ``(draw, enter, charge, kind, slot, stats, name, deadline)``: the
    segment's draw and ``enter`` hook (both None when the piece resumes a job
    a same-instant release preempted), the context-switch charge, the piece
    kind, the job's position in the group, and its task's stats, name and
    deadline.  Everything else the group does is a constant: ``events``
    (releases and completions), dispatch ``rounds``, ``cancellations`` (the
    zero-elapsed preemptions), ``tallies`` (each job's stats and preemption
    count; every job is one activation and one completion) and the ``last``
    dispatched task after it.  ``runs`` counts replays not yet folded into
    the stats.  A group no plan may run has ``worst_us`` infinite.
    """

    __slots__ = ("worst_us", "ops", "last", "events", "rounds", "cancellations", "tallies", "runs")

    def __init__(self) -> None:
        self.worst_us: float = inf
        self.ops: Tuple[tuple, ...] = ()
        self.last: Optional[Task] = None
        self.events = self.rounds = self.cancellations = self.runs = 0
        self.tallies: Tuple[tuple, ...] = ()


class _ReleaseRun:
    """The confined groups that follow one release state, fixed before any draw.

    A release state is every task's next release instant relative to the
    first, in kernel order.  ``groups`` lists ``(offset, plan, state)`` for
    each group: its instant relative to the run's start, its plan and the
    release state just before it.  The run ends ``length`` µs after its start,
    in release ``state`` with ``last`` dispatched last: a hyperperiod later,
    where the window that compiled it could reach no further, or before a
    group that is not confined.
    """

    __slots__ = ("groups", "length", "state", "last")

    def __init__(self, groups, length, state, last) -> None:
        self.groups = groups
        self.length = length
        self.state = state
        self.last = last


class _WindowModel:
    """The window loop's per-scheduler constants, rebuilt when ``key`` changes.

    ``key`` holds every task attribute and scheduler setting the constants
    derive from.  ``plans`` maps ``(release order, last dispatched task)`` to
    a :class:`_GroupPlan` and ``runs`` maps ``(release state, last dispatched
    task)`` to a :class:`_ReleaseRun`, both compiled on first use; ``plans``
    is None when no group can be confined, so such a task set pays one check
    per window.
    """

    __slots__ = ("key", "bound", "costs", "positive", "periods", "hyperperiod", "scale", "plans", "runs")

    def __init__(self, scheduler: "RTOSScheduler", key: tuple) -> None:
        tasks = scheduler.tasks
        self.key = key
        self.bound = scheduler.idle_busy_bound()
        self.costs = scheduler._idle_job_costs()
        self.periods = [task.period_us for task in tasks]
        self.hyperperiod = lcm(*self.periods) if tasks else 0
        factor = scheduler.clock_factor
        self.scale = None if factor == 1.0 else factor
        self.positive = [
            task.idle_shape is not None and all(segment[2] > 0 for segment in task.idle_shape)
            for task in tasks
        ]
        # A group costs at least its cheapest job, and the next release
        # instant is at most a shortest period away.
        plannable = [cost for cost, positive in zip(self.costs or (), self.positive) if positive]
        self.plans: Optional[Dict[tuple, _GroupPlan]] = (
            {}
            if self.bound is not None and plannable and min(plannable) < min(self.periods)
            else None
        )
        self.runs: Dict[tuple, _ReleaseRun] = {}


class RTOSScheduler:
    """A single-core fixed-priority preemptive scheduler."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        context_switch_us: int = 0,
    ) -> None:
        if context_switch_us < 0:
            raise ValueError("context switch overhead must be non-negative")
        self.simulator = simulator
        self.context_switch_us = context_switch_us
        self.tasks: List[Task] = []
        self._ready: List[Job] = []
        self._running: Optional[Job] = None
        self._last_dispatched_task: Optional[Task] = None
        self._started = False
        self._in_dispatch = False
        self._dispatch_again = False
        # Telemetry: dispatch-round counter (plain int add, maintained
        # unconditionally) and the pluggable segment/deadline observer.
        self.dispatch_rounds = 0
        self.observer = NULL_SCHEDULER_OBSERVER
        # Recycled kernel handle for compute-segment completions.  Only one
        # compute segment runs at a time, so a single spare suffices; it is
        # refilled on the fire path only (a preempted segment's handle is
        # cancelled and must never be recycled — its heap entry is stale).
        self._completion_spare = None
        #: The factor by which a clock-drift fault scales every relative
        #: kernel delay (``repro.faults.models.ClockDriftFault``), so that quiescent
        #: windows time replayed completions the way the drifted kernel does.
        #: No busy-period bound is written for a factor below one.
        self.clock_factor = 1.0
        self._window: Optional[_WindowModel] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Register a task.  Names must be unique."""
        if any(existing.name == task.name for existing in self.tasks):
            raise SchedulerError(f"duplicate task name {task.name!r}")
        self.tasks.append(task)
        if self._started:
            self._schedule_release(task, self.simulator.now + task.offset_us)
        return task

    def create_task(
        self,
        name: str,
        priority: int,
        job_factory: Callable[[], Any],
        *,
        period_us: int,
        offset_us: int = 0,
        deadline_us: Optional[int] = None,
    ) -> Task:
        """Create and register a task in one call."""
        task = Task(
            name,
            priority,
            job_factory,
            period_us=period_us,
            offset_us=offset_us,
            deadline_us=deadline_us,
        )
        return self.add_task(task)

    def create_queue(self, name: str, capacity: Optional[int] = None) -> MessageQueue:
        """Create a message queue (the hook a queue fault instruments)."""
        return MessageQueue(name, capacity)

    def get_task(self, name: str) -> Task:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"no task named {name!r}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first release of every task."""
        if self._started:
            return
        self._started = True
        for task in self.tasks:
            self._schedule_release(task, self.simulator.now + task.offset_us)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def scheduler_stats(self) -> dict:
        """A telemetry snapshot of scheduler-wide lifetime counters.

        Like :meth:`Simulator.counters` this is a pull surface: the counters
        are maintained by bookkeeping the scheduler already does, so reading
        them after a run costs nothing during the run.
        """
        return {
            "scheduler_dispatch_rounds": self.dispatch_rounds,
            "scheduler_preemptions": sum(t.stats.preemptions for t in self.tasks),
            "scheduler_activations": sum(t.stats.activations for t in self.tasks),
            "scheduler_completions": sum(t.stats.completions for t in self.tasks),
            "scheduler_deadline_misses": sum(t.stats.deadline_misses for t in self.tasks),
        }

    # ------------------------------------------------------------------
    # Releases
    # ------------------------------------------------------------------
    def _schedule_release(self, task: Task, when_us: int) -> None:
        # Direct clock-slot reads (here and in the other per-event methods
        # below) skip the ``now`` property descriptor; both engines' clocks
        # hold SimClock's slot, so inherited methods stay seed-compatible.
        now = self.simulator._clock._now_us
        if when_us < now:
            when_us = now
        # One release event per task is in flight at a time, so the release
        # closure is created once per task and the fired handle is recycled.
        callback = task.release_callback
        if callback is None:
            # functools.partial dispatches in C — measurably cheaper than a
            # closure frame at one release per task per period.
            callback = task.release_callback = partial(self._periodic_release, task)
        task.release_handle = self.simulator.schedule_at(
            when_us, callback, 0, task.label_release, task.release_handle
        )

    def _periodic_release(self, task: Task) -> None:
        self._release(task)
        # Inlined _schedule_release for the steady-state periodic path: the
        # release callback and handle already exist (this method only fires
        # from an event _schedule_release armed), and now + period can never
        # be in the past, so neither the clamp nor the callback check is
        # needed.  The seed scheduler overrides this with the pre-rebuild
        # body.
        simulator = self.simulator
        task.release_handle = simulator.schedule_at(
            simulator._clock._now_us + task.period_us,
            task.release_callback,
            0,
            task.label_release,
            task.release_handle,
        )

    def _release(self, task: Task) -> None:
        if task.current_job is not None:
            # Previous activation still in progress: skip this release (and
            # count it as a deadline miss).  Under heavy interference this is
            # what starves the CODE(M) thread in implementation scheme 3.
            # This path and the late-completion path in _finish_job count
            # *disjoint* activations — a skipped release never became a job,
            # a late completion did — so no miss is ever double-counted
            # (pinned by TestDeadlineMissAccounting).
            task.stats.deadline_misses += 1
            self.observer.deadline_miss(task.name, self.simulator._clock._now_us)
            return
        job = Job(task, task.job_factory(), self.simulator._clock._now_us)
        task.current_job = job
        task.stats.activations += 1
        self._ready.append(job)
        # A dispatch round is only needed when the new job can actually take
        # the CPU: between rounds no *other* ready job outranks the running
        # one (every ready insertion triggers this same check), so a release
        # that doesn't outrank it leaves the round a guaranteed no-op.
        running = self._running
        if self._in_dispatch:
            self._dispatch_again = True
        elif running is None or task.priority > running.task.priority:
            self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Ready queue management
    # ------------------------------------------------------------------
    def _make_ready(self, job: Job, front: bool = False) -> None:
        if front:
            self._ready.insert(0, job)
        else:
            self._ready.append(job)

    def _pop_ready(self) -> Optional[Job]:
        ready = self._ready
        if not ready:
            return None
        if len(ready) == 1:
            return ready.pop()
        best_index = 0
        best_priority = ready[0].task.priority
        for index in range(1, len(ready)):
            priority = ready[index].task.priority
            if priority > best_priority:
                best_priority = priority
                best_index = index
        return ready.pop(best_index)

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def _schedule_dispatch(self) -> None:
        # The dispatch round is inlined here (the seed code factored it into a
        # separate _dispatch_once) — it runs once per release/completion,
        # which makes the extra call frame measurable in the hot loop.
        if self._in_dispatch:
            self._dispatch_again = True
            return
        self._in_dispatch = True
        try:
            ready = self._ready
            while True:
                self.dispatch_rounds += 1
                self._dispatch_again = False
                running = self._running
                if running is None:
                    while self._running is None and ready:
                        self._run_job(ready.pop() if len(ready) == 1 else self._pop_ready())
                else:
                    # Preempt when a ready job outranks the running one: the
                    # per-release fast exit, inlined because a call frame
                    # here is measurable.
                    priority = running.task.priority
                    for job in ready:
                        if job.task.priority > priority:
                            self._preempt(running)
                            while self._running is None and ready:
                                self._run_job(ready.pop() if len(ready) == 1 else self._pop_ready())
                            break
                if not self._dispatch_again:
                    break
        finally:
            self._in_dispatch = False

    def _run_job(self, job: Job) -> None:
        """Advance ``job`` until it starts a compute segment or finishes."""
        # The preemption check and _make_ready are inlined below: this loop
        # runs once per directive, and the ready list is empty or one deep on
        # almost every check.  ``ready`` aliases self._ready, which is mutated
        # in place but never rebound.
        priority = job.task.priority
        ready = self._ready
        while True:
            pending = job.pending_compute_us
            if pending is None:
                status = self._advance(job)
                if status == "finished":
                    return
                if status == "continue":
                    for other in ready:
                        if other.task.priority > priority:
                            ready.insert(0, job)
                            return
                    continue
                # status == "compute": the handler set the pending segment
                pending = job.pending_compute_us
            if pending == 0:
                job.pending_compute_us = None
                continue
            for other in ready:
                if other.task.priority > priority:
                    ready.insert(0, job)
                    return
            self._start_compute(job)
            return

    def _advance(self, job: Job) -> str:
        """Advance the job generator by one directive.

        Returns one of ``"compute"``, ``"finished"`` or ``"continue"``
        (zero-time queue directive handled, keep advancing).

        This stays a single instance method — rather than being inlined into
        :meth:`_run_job` — because the fault-injection layer wraps
        ``scheduler._advance`` on the instance to inflate compute segments.
        Directives are matched by exact class, most frequent first.
        """
        try:
            directive = job.generator.send(job.send_value)
        except StopIteration:
            self._finish_job(job)
            return "finished"
        job.send_value = None
        cls = directive.__class__
        if cls is Compute:
            job.pending_compute_us = directive.duration_us
            return "compute"
        if cls is Receive:
            job.send_value = directive.queue.receive_nowait()
            return "continue"
        if cls is Send:
            job.send_value = directive.queue.send(directive.item)
            return "continue"
        raise SchedulerError(
            f"task {job.task.name!r} yielded unsupported directive {directive!r}"
        )

    # ------------------------------------------------------------------
    # Compute segments
    # ------------------------------------------------------------------
    def _start_compute(self, job: Job) -> None:
        task = job.task
        if self._last_dispatched_task is not task and self.context_switch_us:
            job.pending_compute_us = (job.pending_compute_us or 0) + self.context_switch_us
        simulator = self.simulator
        job.segment_started_at_us = simulator._clock._now_us
        self._running = job
        self._last_dispatched_task = task
        # The completion callback is a pre-bound method rather than a per-
        # segment closure: a live completion event always belongs to the
        # currently running job (preemption cancels the handle before any
        # other job can run), so the callback looks the job up on fire.
        spare = self._completion_spare
        self._completion_spare = None
        job.completion_handle = simulator.schedule(
            job.pending_compute_us or 0, self._complete_running, 0, task.label_compute, spare
        )

    def _complete_running(self) -> None:
        # One compute completion per segment: _complete_segment and
        # _make_ready are inlined (the seed scheduler keeps the factored
        # methods).
        job = self._running
        self._completion_spare = job.completion_handle
        task = job.task
        now = self.simulator._clock._now_us
        started = job.segment_started_at_us
        task.stats.cpu_time_us += now - (started if started is not None else now)
        self.observer.segment(task.name, started if started is not None else now, now, False)
        job.pending_compute_us = None
        job.segment_started_at_us = None
        job.completion_handle = None
        job.send_value = None
        self._running = None
        self._ready.insert(0, job)
        self._schedule_dispatch()

    def _preempt(self, job: Job) -> None:
        task = job.task
        if job.completion_handle is not None:
            job.completion_handle.cancel()
            job.completion_handle = None
        now = self.simulator._clock._now_us
        started = job.segment_started_at_us
        elapsed = now - (started if started is not None else now)
        task.stats.cpu_time_us += elapsed
        task.stats.preemptions += 1
        self.observer.segment(task.name, started if started is not None else now, now, True)
        job.pending_compute_us = max(0, (job.pending_compute_us or 0) - elapsed)
        job.segment_started_at_us = None
        self._running = None
        self._make_ready(job, front=True)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finish_job(self, job: Job) -> None:
        task = job.task
        stats = task.stats
        task.current_job = None
        stats.completions += 1
        response = self.simulator._clock._now_us - job.release_time_us
        stats.response_times_us.append(response)
        if response > task.deadline_us:
            stats.deadline_misses += 1
            self.observer.deadline_miss(task.name, self.simulator._clock._now_us)

    # ------------------------------------------------------------------
    # Quiescent windows
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no job is running or ready."""
        return self._running is None and not self._ready

    def _idle_job_costs(self) -> Optional[List[int]]:
        """Each task's worst-case idle job, in µs of drifted time, or None.

        A job costs its segments' worst cases plus one context switch per
        segment, and one more for a preemption it may inflict (each release
        preempts at most once), each segment and that switch scaled by the
        clock factor ``f`` and rounded up: ``Σ ⌈(wₛ + s)·f⌉ + ⌈s·f⌉``, which
        is ``Σ wₛ + (n + 1)·s`` at ``f = 1``.  The drifted kernel times a
        segment piece of undrifted pending ``p`` as ``round(p·f)``, at most
        ``⌈p·f⌉``, and a preemption after ``e`` drifted µs leaves ``p − e``
        undrifted; as ``e + ⌈(p − e)·f⌉ ≤ ⌈p·f⌉`` for ``f ≥ 1``, a segment
        whose pieces were charged ``D`` in all runs at most ``⌈D·f⌉``, and
        ``⌈x·f⌉`` is subadditive.  None when a task declares no idle shape or
        the factor is below one, where that argument fails.
        """
        numerator, denominator = float(self.clock_factor).as_integer_ratio()
        if numerator < denominator:
            return None
        switch = self.context_switch_us
        costs = []
        for task in self.tasks:
            shape = task.idle_shape
            if shape is None:
                return None
            charges = [segment[1] + switch for segment in shape]
            charges.append(switch)
            costs.append(sum(-(-us * numerator // denominator) for us in charges))
        return costs

    def idle_busy_bound(self) -> Optional[int]:
        """Longest busy period a window of idle jobs can hold, or None.

        Every task must declare an idle shape.  A job of task ``i`` costs at
        most its idle job's worst case (:meth:`_idle_job_costs`), and at most
        ``L // period + 1`` of its releases fall in any closed interval of
        length ``L``.  The least fixed point of the summed demand bounds every
        busy period that starts on an idle CPU.  None when a task has no idle
        shape, the clock factor is below one, the worst-case utilisation
        reaches one, or a busy period could hold enough preemptions to
        trigger a kernel compaction.
        """
        costs = self._idle_job_costs()
        if not costs:
            return None
        demands = [(task.period_us, cost) for task, cost in zip(self.tasks, costs)]
        if sum(cost / period for period, cost in demands) >= 1.0:
            return None
        length = 0
        while True:
            demand = sum((length // period + 1) * cost for period, cost in demands)
            if demand <= length:
                break
            length = demand
        releases = sum(length // period + 1 for period, _ in demands)
        return length if releases < Simulator._COMPACTION_MIN_STALE else None

    def _window_model(self) -> _WindowModel:
        """The window loop's constants, rebuilt whenever what they derive from changes."""
        key = (
            self.context_switch_us,
            self.clock_factor,
            tuple(
                (task.priority, task.period_us, task.deadline_us, task.idle_shape)
                for task in self.tasks
            ),
        )
        model = self._window
        if model is None or model.key != key:
            model = self._window = _WindowModel(self, key)
        return model

    def _group_plan(self, order: Tuple[int, ...], last: Optional[Task], model: _WindowModel) -> _GroupPlan:
        """How the jobs of ``order``, released at one idle instant, run.

        ``order`` lists task indices in release order and ``last`` is the
        last dispatched task.  When every draw is positive, no job can
        finish at the release instant, so the dispatch decisions of the
        callback path — which job runs, which same-instant release preempts
        which job before any time elapses, which start pays a context switch
        — depend on these two alone, never on a draw.  This replays those
        decisions once.  The plan may run only a group that is *confined*:
        every job's segments have a positive best case, and the group's
        summed worst cases (``model.costs``) end before the next release
        instant; otherwise its ``worst_us`` stays infinite.  Compiled once
        per scheduler for each pair.
        """
        key = (order, last)
        plan = model.plans.get(key)
        if plan is not None:
            return plan
        plan = model.plans[key] = _GroupPlan()
        worst = sum(model.costs[index] for index in order)
        if worst >= min(model.periods[index] for index in order) or not all(
            model.positive[index] for index in order
        ):
            return plan
        tasks = self.tasks
        switch = self.context_switch_us
        ops: List[list] = []
        preemptions = dict.fromkeys(order, 0)
        # A job is ``[slot, task index, next segment, its open piece or None,
        # preempted mid-piece]``.
        ready: List[list] = []
        running: Optional[list] = None
        rounds = cancellations = completions = 0

        def dispatch() -> None:
            nonlocal running, last
            while running is None and ready:
                best = 0
                for position in range(1, len(ready)):
                    if tasks[ready[position][1]].priority > tasks[ready[best][1]].priority:
                        best = position
                job = ready.pop(best)
                slot, index, segment, piece, resumed = job
                task = tasks[index]
                shape = task.idle_shape
                if resumed or segment < len(shape):
                    draw = enter = None
                    if not resumed:
                        draw, _, _, enter = shape[segment]
                        job[2] = segment + 1
                    charge = switch if last is not task else 0
                    job[3] = [draw, enter, charge, _COMPLETES, slot, task.stats, task.name, task.deadline_us]
                    job[4] = False
                    ops.append(job[3])
                    running = job
                    last = task
                elif piece is None:
                    ops.append([None, None, 0, _EMPTY, slot, task.stats, task.name, task.deadline_us])
                else:
                    # The job's last piece has just completed.
                    piece[3] = _FINISHES

        for slot, index in enumerate(order):
            ready.append([slot, index, 0, None, False])
            if running is None or tasks[index].priority > tasks[running[1]].priority:
                rounds += 1
                if running is not None:
                    running[3][3] = _PREEMPTED
                    running[4] = True
                    preemptions[running[1]] += 1
                    cancellations += 1
                    ready.insert(0, running)
                    running = None
                dispatch()
        while running is not None:
            completions += 1
            ready.insert(0, running)
            running = None
            rounds += 1
            dispatch()

        plan.worst_us = worst
        plan.ops = tuple(tuple(op) for op in ops)
        plan.last = last
        plan.events = len(order) + completions
        plan.rounds = rounds
        plan.cancellations = cancellations
        plan.tallies = tuple((tasks[index].stats, preemptions[index]) for index in order)
        return plan

    def _release_run(
        self, state: tuple, last: Optional[Task], span: int, model: _WindowModel
    ) -> _ReleaseRun:
        """The confined groups from release ``state``, ``last`` dispatched last.

        The groups' instants and orders follow from the state alone (each
        release re-arms a period later, after every entry already queued),
        and so does every plan: the run stops a hyperperiod on, at ``span``
        if that is sooner, or before the first group that is not confined.
        Compiled once per scheduler for each pair.
        """
        key = (state, last)
        run = model.runs.get(key)
        if run is not None:
            return run
        periods = model.periods
        span = min(span, model.hyperperiod)
        heap = [(offset, rank, member) for rank, (offset, member) in enumerate(state)]
        draws = len(heap)
        groups = []
        while True:
            at = heap[0][0]
            before = tuple([(time - at, member) for time, _, member in sorted(heap)])
            if at >= span:
                break
            order = []
            while heap[0][0] == at:
                member = heap[0][2]
                order.append(member)
                heapreplace(heap, (at + periods[member], draws, member))
                draws += 1
            plan = self._group_plan(tuple(order), last, model)
            if not at + plan.worst_us < heap[0][0]:
                break
            groups.append((at, plan, before))
            last = plan.last
        run = model.runs[key] = _ReleaseRun(tuple(groups), at, before, last)
        return run

    def _replay_runs(
        self,
        run: _ReleaseRun,
        base: int,
        last: Optional[Task],
        bound: int,
        horizon: int,
        model: _WindowModel,
    ) -> Tuple[int, tuple, Optional[Task], int]:
        """Replay confined groups from their plans, run after run, from ``base``.

        ``run`` starts at ``base`` with ``last`` dispatched last, and its first
        group ends before ``horizon``.  Stops before the first group whose
        busy period might not (its instant plus ``bound``), or that is not
        confined.  Returns that group's instant, the release state there, the
        last dispatched task and the instant of the last group replayed.
        """
        observer = self.observer
        observed = observer is not NULL_SCHEDULER_OBSERVER
        segment = observer.segment
        deadline_miss = observer.deadline_miss
        scale = model.scale
        instant = base
        # Pending µs of a group's jobs that a same-instant release preempted.
        carried = [0] * len(self.tasks)
        while True:
            for offset, plan, state in run.groups:
                at = base + offset
                if at + bound >= horizon:
                    return at, state, last, instant
                now = at
                for draw, enter, charge, kind, slot, stats, name, deadline in plan.ops:
                    if kind != _EMPTY:
                        if draw is None:
                            pending = carried[slot] + charge
                        else:
                            if enter is not None:
                                enter(now)
                            pending = draw() + charge
                        if kind == _PREEMPTED:
                            carried[slot] = pending
                            if observed:
                                segment(name, now, now, True)
                            continue
                        if scale is not None:
                            pending = int(round(pending * scale))
                        stats.cpu_time_us += pending
                        if observed:
                            segment(name, now, now + pending, False)
                        now += pending
                        if kind == _COMPLETES:
                            continue
                    response = now - at
                    stats.response_times_us.append(response)
                    if response > deadline:
                        stats.deadline_misses += 1
                        deadline_miss(name, now)
                plan.runs += 1
                last = plan.last
                instant = at
            base += run.length
            if base + bound >= horizon:
                return base, run.state, last, instant
            successor = self._release_run(run.state, last, horizon - bound - base, model)
            if not successor.groups:
                # The next group is not confined.
                return base, run.state, last, instant
            run = successor

    def fast_forward(self, limit_us: int) -> int:
        """Replay a quiescent stretch of idle jobs without the kernel.

        The caller stops the kernel just before the next task release and
        calls this only while the system the tasks serve is quiescent: every
        job it could release runs its task's :attr:`~Task.idle_shape` and
        nothing else, up to ``limit_us`` (exclusive) at least.  The window
        also ends at the kernel's first entry that is neither a dormant chain
        nor a task release (:meth:`Simulator.window_scan`).

        Releases and compute-segment completions replay exactly as the
        callback path dispatches them — fixed-priority preemption, FIFO
        ties, the context-switch charge, each segment's draw at the instant
        the job enters it, same-instant order by the kernel's sequence draws,
        completions timed by the :attr:`clock_factor` as the drifted kernel
        times them — and every :class:`TaskStats` field, ``dispatch_rounds``
        and the observer's ``segment``/``deadline_miss`` calls stay exact.
        A busy period opens on an idle CPU only when it provably ends before
        the window does (:meth:`idle_busy_bound`), so no draw is ever
        speculative, and the window stops at an instant where the CPU is
        idle and nothing due there has run.
        :meth:`Simulator.skip_window` then moves the kernel's dormant chains
        and release entries past the stretch.

        A busy period runs one of two ways.  If the releases due at its
        first instant form a confined group (:meth:`_group_plan`), it and
        the confined groups after it replay from precompiled plans without
        the release heap (:meth:`_release_run`, :meth:`_replay_runs`): per
        job only the draws, the ``enter`` hooks, the CPU time, the
        response, the deadline check and the observer calls remain, and a
        hyperperiod whose release state repeats loops on one run.  The heap
        is rebuilt where that replay stops.  Any other busy period runs the
        general loop: a release heap, a ready list and preemption, one event
        at a time.

        Returns that instant: the caller resumes the callback path there.
        No job may be running or ready; otherwise (or when no window fits)
        the next release instant is returned and nothing changes.
        """
        tasks = self.tasks
        handles = [task.release_handle for task in tasks]
        start = min(handle.time_us for handle in handles)
        if self._running is not None or self._ready:
            return start
        model = self._window_model()
        bound = model.bound
        if bound is None:
            return start
        horizon, sequences = self.simulator.window_scan(handles)
        if horizon is None or horizon > limit_us:
            horizon = limit_us
        if start + bound >= horizon:
            return start

        # Per-task constants: (priority, shape, segment count, task, stats,
        # task index).
        constants = [
            (task.priority, task.idle_shape, len(task.idle_shape), task, task.stats, index)
            for index, task in enumerate(tasks)
        ]
        observer = self.observer
        observed = observer is not NULL_SCHEDULER_OBSERVER
        segment = observer.segment
        deadline_miss = observer.deadline_miss
        switch = self.context_switch_us
        scale = model.scale
        periods = model.periods
        plans = model.plans
        # The release entries, keyed like the kernel's heap: ``(time,
        # sequence, task index)``.  The running segment's completion is kept
        # apart as ``(due, due_sequence)``; a preempted segment's completion
        # simply stops being tracked (on the callback path its cancelled
        # entry is skipped when it surfaces).  Fresh sequence numbers only
        # need to exceed the releases' (only relative order is observable).
        heap = [
            (handle.time_us, sequence, index)
            for index, (handle, sequence) in enumerate(zip(handles, sequences))
        ]
        heapify(heap)
        draws = max(sequences) + 1
        # A job is ``[constants, next segment, pending us, segment start,
        # release instant]``; ``pending`` is None between segments.
        current: List[Optional[list]] = [None] * len(tasks)
        ready: List[list] = []
        running: Optional[list] = None
        due = due_sequence = 0
        last = self._last_dispatched_task
        events = rounds = cancellations = 0
        instant = -1

        while True:
            release_us, release_sequence, index = heap[0]
            if running is not None and (
                due < release_us or (due == release_us and due_sequence < release_sequence)
            ):
                # The running segment completes (_complete_running).
                now = instant = due
                events += 1
                job = running
                started = job[3]
                job[0][4].cpu_time_us += now - started
                if observed:
                    segment(job[0][3].name, started, now, False)
                job[2] = None
                running = None
                ready.insert(0, job)
                index = -1
                dispatch = True
            else:
                if release_us > instant and running is None:
                    # The CPU is idle and nothing due now has run: open the
                    # next busy period only if it provably ends in the window.
                    if release_us + bound >= horizon:
                        break
                    if plans is not None:
                        state = tuple(
                            [(time - release_us, member) for time, _, member in sorted(heap)]
                        )
                        run = self._release_run(state, last, horizon - bound - release_us, model)
                        if run.groups:
                            base, state, last, instant = self._replay_runs(
                                run, release_us, last, bound, horizon, model
                            )
                            heap = [
                                (base + offset, draws + rank, member)
                                for rank, (offset, member) in enumerate(state)
                            ]
                            draws += len(heap)
                            continue
                # A task release (_release).
                now = instant = release_us
                events += 1
                job = current[index]
                if job is not None:
                    task = job[0][3]
                    task.stats.deadline_misses += 1
                    deadline_miss(task.name, now)
                    dispatch = False
                else:
                    constant = constants[index]
                    job = current[index] = [constant, 0, None, 0, now]
                    constant[4].activations += 1
                    ready.append(job)
                    dispatch = running is None or constant[0] > running[0][0]
            if dispatch:
                # One dispatch round (_schedule_dispatch, _preempt, _run_job).
                rounds += 1
                if running is not None:
                    # Only a release that outranks the running job starts a
                    # round while a job runs, so the round preempts it.
                    job = running
                    started = job[3]
                    elapsed = now - started
                    stats = job[0][4]
                    stats.cpu_time_us += elapsed
                    stats.preemptions += 1
                    if observed:
                        segment(job[0][3].name, started, now, True)
                    remaining = job[2] - elapsed
                    job[2] = remaining if remaining > 0 else 0
                    cancellations += 1
                    running = None
                    ready.insert(0, job)
                # A ready job never outranks the one that runs (it would have
                # preempted it), so the job taken here runs until it starts a
                # segment or returns.
                while running is None and ready:
                    if len(ready) == 1:
                        job = ready.pop()
                    else:
                        best = 0
                        best_priority = ready[0][0][0]
                        for position in range(1, len(ready)):
                            priority = ready[position][0][0]
                            if priority > best_priority:
                                best_priority = priority
                                best = position
                        job = ready.pop(best)
                    constant = job[0]
                    while True:
                        pending = job[2]
                        if pending is None:
                            position = job[1]
                            if position == constant[2]:
                                # The job body returns (_finish_job).
                                task = constant[3]
                                stats = constant[4]
                                current[constant[5]] = None
                                stats.completions += 1
                                response = now - job[4]
                                stats.response_times_us.append(response)
                                if response > task.deadline_us:
                                    stats.deadline_misses += 1
                                    deadline_miss(task.name, now)
                                break
                            draw, _, _, enter = constant[1][position]
                            job[1] = position + 1
                            if enter is not None:
                                enter(now)
                            pending = draw()
                        if pending:
                            task = constant[3]
                            if last is not task and switch:
                                pending += switch
                            job[2] = pending
                            job[3] = now
                            running = job
                            last = task
                            due = now + (pending if scale is None else int(round(pending * scale)))
                            due_sequence = draws
                            draws += 1
                            break
                        job[2] = None
            if index >= 0:
                # The release re-arms after its dispatch round (_periodic_release).
                heapreplace(heap, (now + periods[index], draws, index))
                draws += 1

        if plans is not None:
            # Fold the plans' replays into the counters and stats.
            for plan in plans.values():
                runs = plan.runs
                if runs:
                    plan.runs = 0
                    events += runs * plan.events
                    rounds += runs * plan.rounds
                    cancellations += runs * plan.cancellations
                    for stats, preemptions in plan.tallies:
                        stats.activations += runs
                        stats.completions += runs
                        stats.preemptions += runs * preemptions
        stop = release_us if release_us < horizon else horizon
        if not events:
            return stop
        fired = {}
        for release_us, _, index in heap:
            handle = handles[index]
            if release_us != handle.time_us:
                fired[handle] = (release_us, tasks[index].period_us)
        self.dispatch_rounds += rounds
        self._last_dispatched_task = last
        self.simulator.skip_window(stop, fired, events, cancellations)
        return stop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._running.task.name if self._running else None
        return f"RTOSScheduler(tasks={len(self.tasks)}, running={running!r})"
