"""Implementation Scheme 2: multi-threaded integration with FIFO queues.

From the paper:

    "This implementation uses multiple threads to read m-events from sensors
    and to write c-events to actuators.  In addition, a thread that executes
    CODE(M) is separately run to read i-events from the sensing threads, and
    to write o-events to the actuation threads. [...] the summation of the
    thread periods along the path of sensing-CODE(M)-actuation routines is
    less than 100 ms [...].  The communication among sensing/actuation threads
    and CODE(M) threads is implemented using FIFO queues."

Three periodic tasks are created — sensing, CODE(M) and actuation — connected
by two FIFO queues.  The default periods (10 ms + 25 ms + 10 ms = 45 ms) keep
the period sum comfortably below the 100 ms REQ1 deadline, as the paper's
scheme 2 does by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..platform.kernel.time import ms
from ..platform.rtos.directives import Compute, Receive, Send
from ..platform.rtos.queue import MessageQueue
from .base import ImplementedSystem, SchemeConfig


@dataclass
class MultiThreadedConfig(SchemeConfig):
    """Configuration of the multi-threaded scheme."""

    sensing_period_us: int = ms(10)
    codem_period_us: int = ms(25)
    actuation_period_us: int = ms(10)
    sensing_priority: int = 4
    codem_priority: int = 3
    actuation_priority: int = 4
    input_queue_capacity: int = 16
    output_queue_capacity: int = 16

    @property
    def period_sum_us(self) -> int:
        """Sum of the thread periods along the sensing-CODE(M)-actuation path."""
        return self.sensing_period_us + self.codem_period_us + self.actuation_period_us


class MultiThreadedSystem(ImplementedSystem):
    """Scheme 2: sensing, CODE(M) and actuation threads communicating via queues."""

    scheme_name = "scheme2-multi-threaded"

    def __init__(self, bundle, artifacts, config: Optional[MultiThreadedConfig] = None) -> None:
        super().__init__(bundle, artifacts, config or MultiThreadedConfig())
        self.config: MultiThreadedConfig
        self.input_queue: Optional[MessageQueue] = None
        self.output_queue: Optional[MessageQueue] = None

    # ------------------------------------------------------------------
    def _create_tasks(self) -> None:
        config = self.config
        self.input_queue = self.scheduler.create_queue(
            "i_events", capacity=config.input_queue_capacity
        )
        self.output_queue = self.scheduler.create_queue(
            "o_events", capacity=config.output_queue_capacity
        )
        sensing = self.scheduler.create_task(
            "sensing",
            priority=config.sensing_priority,
            job_factory=self._sensing_job,
            period_us=config.sensing_period_us,
        )
        codem = self.scheduler.create_task(
            "codem",
            priority=config.codem_priority,
            job_factory=self._codem_job,
            period_us=config.codem_period_us,
        )
        actuation = self.scheduler.create_task(
            "actuation",
            priority=config.actuation_priority,
            job_factory=self._actuation_job,
            period_us=config.actuation_period_us,
        )
        # Idle jobs: a scan that finds nothing to send, a CODE(M) invocation
        # that receives nothing and fires nothing, an actuation that receives
        # nothing and charges nothing.
        sensing.idle_shape = (self._scan_segment(),)
        code_segment = self._idle_code_segment()
        if code_segment is not None:
            codem.idle_shape = (code_segment,)
        actuation.idle_shape = ()

    def _quiescent(self) -> bool:
        return not self.input_queue and not self.output_queue and super()._quiescent()

    # ------------------------------------------------------------------
    # Task bodies
    # ------------------------------------------------------------------
    def _sensing_job(self) -> Generator[Any, Any, None]:
        """Sample every sensor and forward detected occurrences to CODE(M)."""
        yield Compute(self.execution_model.input_scan_cost(self._rng), label="sense")
        for occurrence in self._collect_inputs():
            yield Send(self.input_queue, occurrence)

    def _codem_job(self) -> Generator[Any, Any, None]:
        """Drain the input queue, run the generated code, forward output writes."""
        pending = []
        while True:
            item = yield Receive(self.input_queue)
            if item is None:
                break
            pending.append(item)
        writes = yield from self._execute_code_cycle(pending, self.config.transitions_per_cycle)
        for write in writes:
            yield Send(self.output_queue, write)

    def _actuation_job(self) -> Generator[Any, Any, None]:
        """Drain the output queue and command the actuators."""
        writes = []
        while True:
            item = yield Receive(self.output_queue)
            if item is None:
                break
            writes.append(item)
        if writes:
            yield Compute(
                self.execution_model.output_write_cost(self._rng) * len(writes),
                label="actuate",
            )
            self._apply_outputs(writes)
