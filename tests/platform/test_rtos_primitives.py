"""Unit tests for RTOS message queues."""

import pytest

from repro.platform.kernel.simulator import Simulator
from repro.platform.rtos.queue import MessageQueue


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("q")
        queue.send(1)
        queue.send(2)
        queue.send(3)
        assert queue.drain() == [1, 2, 3]

    def test_receive_empty_returns_none(self):
        queue = MessageQueue("q")
        assert queue.receive_nowait() is None

    def test_bounded_queue_drops_when_full(self):
        queue = MessageQueue("q", capacity=2)
        assert queue.send("a")
        assert queue.send("b")
        assert not queue.send("c")
        assert queue.stats.dropped == 1
        assert len(queue) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MessageQueue("q", capacity=0)

    def test_stats_counters(self):
        queue = MessageQueue("q")
        queue.send(1)
        queue.send(2)
        queue.receive_nowait()
        assert queue.stats.sent == 2
        assert queue.stats.received == 1
        assert queue.stats.max_depth == 2

    def test_residence_time_uses_simulator_clock(self):
        sim = Simulator()
        queue = MessageQueue("q", simulator=sim)
        queue.send("item")
        sim.schedule_at(1000, lambda: queue.receive_nowait())
        sim.run_until(1000)
        assert queue.stats.total_residence_us == 1000

    def test_clear_discards_without_counting(self):
        queue = MessageQueue("q")
        queue.send(1)
        queue.clear()
        assert queue.empty
        assert queue.stats.received == 0
