"""Bounded FIFO message queues (FreeRTOS ``xQueue`` analogue).

The paper's implementation scheme 2 and 3 connect sensing, CODE(M) and
actuation threads with FIFO queues; queue residence time is one of the
platform-induced latency contributors that M-testing exposes.  The queue
therefore records enqueue timestamps so the latency of every message can be
recovered by the analysis layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional

from ..kernel.simulator import Simulator


@dataclass(frozen=True)
class QueuedMessage:
    """An item together with the instant it was enqueued."""

    item: Any
    enqueued_at_us: int


@dataclass
class QueueStats:
    """Aggregate statistics maintained by a :class:`MessageQueue`."""

    sent: int = 0
    received: int = 0
    dropped: int = 0
    max_depth: int = 0
    total_residence_us: int = 0


class MessageQueue:
    """A bounded FIFO queue with drop-on-full semantics.

    ``capacity`` of ``None`` means unbounded (used by instrumentation queues
    that must never drop).  Every operation is non-blocking: a send to a full
    queue drops the item and a receive from an empty one returns ``None``.
    """

    def __init__(self, name: str, capacity: Optional[int] = None, *, simulator: Optional[Simulator] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("queue capacity must be positive (or None for unbounded)")
        self.name = name
        self.capacity = capacity
        self._simulator = simulator
        self._items: Deque[QueuedMessage] = deque()
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    # Basic operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def _now(self) -> int:
        return self._simulator.now if self._simulator is not None else 0

    def send(self, item: Any) -> bool:
        """Enqueue ``item``.  Returns ``False`` (and counts a drop) when full."""
        if self.full:
            self.stats.dropped += 1
            return False
        self._items.append(QueuedMessage(item, self._now()))
        self.stats.sent += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._items))
        return True

    def receive_nowait(self) -> Optional[Any]:
        """Dequeue the oldest item, or ``None`` when empty."""
        message = self.receive_message()
        return message.item if message is not None else None

    def receive_message(self) -> Optional[QueuedMessage]:
        """Dequeue the oldest item together with its enqueue timestamp."""
        if not self._items:
            return None
        message = self._items.popleft()
        self.stats.received += 1
        self.stats.total_residence_us += max(0, self._now() - message.enqueued_at_us)
        return message

    def drain(self) -> List[Any]:
        """Dequeue every item currently in the queue (oldest first)."""
        items = []
        while self._items:
            items.append(self.receive_nowait())
        return items

    def clear(self) -> None:
        """Discard all queued items without counting them as received."""
        self._items.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"MessageQueue({self.name!r}, depth={len(self._items)}/{cap})"
