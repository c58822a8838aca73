"""Unit tests for RTOS message queues."""

import pytest

from repro.platform.rtos.queue import MessageQueue


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("q")
        queue.send(1)
        queue.send(2)
        queue.send(3)
        assert [queue.receive_nowait() for _ in range(4)] == [1, 2, 3, None]

    def test_receive_empty_returns_none(self):
        queue = MessageQueue("q")
        assert queue.receive_nowait() is None

    def test_bounded_queue_drops_when_full(self):
        queue = MessageQueue("q", capacity=2)
        assert queue.send("a")
        assert queue.send("b")
        assert not queue.send("c")
        assert len(queue) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MessageQueue("q", capacity=0)
