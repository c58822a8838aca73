"""Bounded FIFO message queues (FreeRTOS ``xQueue`` analogue).

The paper's implementation schemes 2 and 3 connect the sensing, CODE(M) and
actuation threads with FIFO queues.  A message's time in a queue is part of
the m→i or o→c segment M-testing reads off the trace, so the queue itself
keeps no timestamps or statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional


class MessageQueue:
    """A bounded FIFO queue with drop-on-full semantics.

    ``capacity`` of ``None`` means unbounded.  Every operation is
    non-blocking: a send to a full queue drops the item and a receive from an
    empty one returns ``None``.
    """

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("queue capacity must be positive (or None for unbounded)")
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def send(self, item: Any) -> bool:
        """Enqueue ``item``.  Returns ``False`` (dropping it) when the queue is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def receive_nowait(self) -> Optional[Any]:
        """Dequeue the oldest item, or ``None`` when empty."""
        return self._items.popleft() if self._items else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"MessageQueue({self.name!r}, depth={len(self._items)}/{cap})"
