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
by two FIFO queues.  The periods (10 ms + 25 ms + 10 ms = 45 ms) keep
the period sum comfortably below the 100 ms REQ1 deadline, as the paper's
scheme 2 does by construction.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..platform.kernel.time import ms
from ..platform.rtos.directives import Compute, Receive, Send
from ..platform.rtos.queue import MessageQueue
from .base import ImplementedSystem, SchemeConfig

#: Thread periods along the sensing-CODE(M)-actuation path (sum 45 ms).
SENSING_PERIOD_US = ms(10)
CODEM_PERIOD_US = ms(25)
ACTUATION_PERIOD_US = ms(10)
#: Thread priorities: the I/O threads outrank the CODE(M) thread.
SENSING_PRIORITY = 4
CODEM_PRIORITY = 3
ACTUATION_PRIORITY = 4
#: Capacity of each FIFO queue between the threads.
QUEUE_CAPACITY = 16


class MultiThreadedSystem(ImplementedSystem):
    """Scheme 2: sensing, CODE(M) and actuation threads communicating via queues."""

    scheme_name = "scheme2-multi-threaded"

    def __init__(self, bundle, artifacts, config: Optional[SchemeConfig] = None) -> None:
        super().__init__(bundle, artifacts, config)
        self.input_queue: Optional[MessageQueue] = None
        self.output_queue: Optional[MessageQueue] = None

    # ------------------------------------------------------------------
    def _create_tasks(self) -> None:
        scheduler = self.scheduler
        self.input_queue = scheduler.create_queue("i_events", capacity=QUEUE_CAPACITY)
        self.output_queue = scheduler.create_queue("o_events", capacity=QUEUE_CAPACITY)
        sensing = scheduler.create_task(
            "sensing",
            priority=SENSING_PRIORITY,
            job_factory=self._sensing_job,
            period_us=SENSING_PERIOD_US,
        )
        codem = scheduler.create_task(
            "codem",
            priority=CODEM_PRIORITY,
            job_factory=self._codem_job,
            period_us=CODEM_PERIOD_US,
        )
        actuation = scheduler.create_task(
            "actuation",
            priority=ACTUATION_PRIORITY,
            job_factory=self._actuation_job,
            period_us=ACTUATION_PERIOD_US,
        )
        # Idle jobs: a scan that finds nothing to send, a CODE(M) invocation
        # that receives nothing and fires nothing, an actuation that receives
        # nothing and charges nothing.
        sensing.idle_shape = (self._scan_segment(),)
        codem.idle_shape = (self._idle_code_segment(),)
        actuation.idle_shape = ()

    def _quiescent(self) -> bool:
        return not self.input_queue and not self.output_queue and super()._quiescent()

    # ------------------------------------------------------------------
    # Task bodies
    # ------------------------------------------------------------------
    def _sensing_job(self) -> Generator[Any, Any, None]:
        """Sample every sensor and forward detected occurrences to CODE(M)."""
        yield Compute(self.execution_model.input_scan_cost(self._rng))
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
        # One invocation runs the chart to completion (no transition limit).
        writes = yield from self._execute_code_cycle(pending, None)
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
            yield Compute(self.execution_model.output_write_cost(self._rng) * len(writes))
            self._apply_outputs(writes)
