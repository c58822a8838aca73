"""Directives that task job code yields to the RTOS scheduler.

A task body is written as a Python generator.  Plain Python statements between
``yield`` points execute in zero simulated time (they model register-level
work folded into the surrounding compute segments); simulated time only passes
when the job yields :class:`Compute`.  :class:`Send` and :class:`Receive` take
no time and never block, which is all the paper's implementation schemes need.

Example::

    def job():
        yield Compute(ms(1))                 # burn 1 ms of CPU
        item = yield Receive(queue)          # the oldest item, or None if empty
        if item is not None:
            handle(item)
            yield Compute(us(200))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .queue import MessageQueue


@dataclass(frozen=True)
class Compute:
    """Consume ``duration_us`` of CPU time (preemptible)."""

    duration_us: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError("compute duration must be non-negative")


@dataclass(frozen=True)
class Receive:
    """Receive one item from a :class:`MessageQueue` (never blocks).

    The yield expression evaluates to the oldest item, or ``None`` when the
    queue is empty (like ``xQueueReceive`` with zero block time).
    """

    queue: "MessageQueue"


@dataclass(frozen=True)
class Send:
    """Send ``item`` to a :class:`MessageQueue` (never blocks).

    The yield expression evaluates to ``True`` when the item was enqueued and
    ``False`` when the queue was full and the item was dropped (matching
    ``xQueueSend`` with zero block time).
    """

    queue: "MessageQueue"
    item: Any
