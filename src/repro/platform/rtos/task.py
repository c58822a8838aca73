"""Task (thread) abstraction for the simulated RTOS.

A :class:`Task` describes *what* runs (a job factory producing a generator of
scheduler directives) and *when* it is released (every period, from an
offset).  The scheduler owns the runtime state; per-activation bookkeeping
lives in :class:`Job`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple


JobBody = Generator[Any, Any, None]
JobFactory = Callable[[], JobBody]

#: One compute segment of an idle job: a zero-argument callable drawing the
#: segment's duration (exactly the draw the job body makes), the largest and
#: the smallest duration it can draw, and an optional hook called with the
#: instant the job enters the segment, before the draw.  A positive smallest
#: duration is what lets a quiescent window replay the job's release group
#: from a precompiled plan (see RTOSScheduler.fast_forward).
IdleSegment = Tuple[Callable[[], int], int, int, Optional[Callable[[int], None]]]


@dataclass
class TaskStats:
    """Per-task runtime statistics collected by the scheduler."""

    activations: int = 0
    completions: int = 0
    preemptions: int = 0
    deadline_misses: int = 0
    cpu_time_us: int = 0
    response_times_us: List[int] = field(default_factory=list)


class Task:
    """A periodic schedulable task.

    Parameters
    ----------
    name:
        Unique task name (used in traces and diagnostics).
    priority:
        FreeRTOS convention: larger number means higher priority.
    job_factory:
        Zero-argument callable returning a fresh job generator for each
        activation.
    period_us:
        Release period.
    offset_us:
        Release offset of the first activation.
    deadline_us:
        Relative deadline used only for bookkeeping (deadline-miss counting);
        defaults to the period.
    """

    def __init__(
        self,
        name: str,
        priority: int,
        job_factory: JobFactory,
        *,
        period_us: int,
        offset_us: int = 0,
        deadline_us: Optional[int] = None,
    ) -> None:
        if priority < 0:
            raise ValueError("priority must be non-negative")
        if period_us <= 0:
            raise ValueError("period must be positive")
        if offset_us < 0:
            raise ValueError("offset must be non-negative")
        self.name = name
        self.priority = priority
        self.job_factory = job_factory
        self.period_us = period_us
        self.offset_us = offset_us
        self.deadline_us = deadline_us if deadline_us is not None else period_us
        self.stats = TaskStats()
        self.current_job: Optional["Job"] = None
        # Kernel-event labels, precomputed once.  The scheduler schedules
        # thousands of events per run; formatting these per call showed up in
        # dispatch profiles.
        self.label_compute = f"compute:{name}"
        self.label_release = f"release:{name}"
        # Scheduler-owned release plumbing: the periodic-release closure is
        # created once per task, and the fired release event handle is
        # recycled (see Simulator.schedule's ``reuse`` contract).
        self.release_callback: Optional[Callable[[], None]] = None
        self.release_handle: Any = None
        #: What a job of this task does while the system it serves is
        #: quiescent: a straight line of compute segments, with nothing sent
        #: and nothing received.  Declared by the task's owner; None (the
        #: default) keeps every quiescent window of its scheduler closed (see
        #: RTOSScheduler.fast_forward).
        self.idle_shape: Optional[Tuple[IdleSegment, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.name!r}, prio={self.priority}, period={self.period_us}us)"


class Job:
    """One activation of a task.

    The scheduler drives the job generator; the job records the compute
    segment it is executing and how much of it remains after preemption.
    """

    __slots__ = (
        "task",
        "generator",
        "release_time_us",
        "pending_compute_us",
        "send_value",
        "completion_handle",
        "segment_started_at_us",
    )

    def __init__(self, task: Task, generator: JobBody, release_time_us: int) -> None:
        self.task = task
        self.generator = generator
        self.release_time_us = release_time_us
        #: Remaining CPU time of the compute segment to run next (None when the
        #: generator must be advanced to obtain the next directive).
        self.pending_compute_us: Optional[int] = None
        #: Value to feed into ``generator.send`` on the next advancement.
        self.send_value: Any = None
        self.completion_handle: Any = None
        self.segment_started_at_us: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.task.name}, released={self.release_time_us}, "
            f"pending={self.pending_compute_us})"
        )
