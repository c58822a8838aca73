"""Implementation Scheme 1: single-threaded periodic integration.

From the paper:

    "The implementation, CODE(M), is executed by a single thread that is
    invoked periodically.  In our case study, CODE(M) is invoked every 25 ms
    to read m-events from the sensors (e.g., bolus-request button); and to
    write c-events to the actuators at the end of CODE(M) computations."

One periodic task therefore performs, per cycle: sense every input device,
run the generated code, and write any produced outputs to the actuators at
the end of the cycle.  A per-cycle housekeeping budget models the rest of the
work a monolithic firmware loop performs (display refresh, logging, watchdog),
which is what makes this scheme's cycle occasionally overrun its period.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Generator, Optional

from ..platform.kernel.random import uniform
from ..platform.kernel.time import ms
from ..platform.rtos.directives import Compute
from .base import ImplementedSystem, SchemeConfig

#: Priority of the single CODE(M) thread.
PRIORITY = 3
#: Per-cycle cost of everything else the monolithic loop does.
HOUSEKEEPING = uniform(ms(13), ms(5))
#: Transitions one invocation may fire: scheme 1 steps the chart once per
#: invocation, mirroring a Stateflow periodic step.
TRANSITIONS_PER_CYCLE = 1


@dataclass
class SingleThreadedConfig(SchemeConfig):
    """Configuration of the single-threaded scheme."""

    #: Invocation period of the single CODE(M) thread (the paper uses 25 ms).
    period_us: int = ms(25)


class SingleThreadedSystem(ImplementedSystem):
    """Scheme 1: sense, step CODE(M) and actuate in one periodic thread."""

    scheme_name = "scheme1-single-threaded"

    def __init__(self, bundle, artifacts, config: Optional[SingleThreadedConfig] = None) -> None:
        super().__init__(bundle, artifacts, config or SingleThreadedConfig())
        self.config: SingleThreadedConfig

    def _create_tasks(self) -> None:
        task = self.scheduler.create_task(
            "codem_loop",
            priority=PRIORITY,
            job_factory=self._cycle_job,
            period_us=self.config.period_us,
        )
        # An idle cycle senses nothing, fires nothing and actuates nothing.
        task.idle_shape = (
            self._scan_segment(),
            self._idle_code_segment(),
            (
                partial(HOUSEKEEPING.sample, self._rng),
                HOUSEKEEPING.worst_case_us,
                HOUSEKEEPING.best_case_us,
                None,
            ),
        )

    # ------------------------------------------------------------------
    def _cycle_job(self) -> Generator[Any, Any, None]:
        """One 25 ms cycle: sense -> CODE(M) -> housekeeping -> actuate."""
        # Read every sensor through its driver.
        yield Compute(self.execution_model.input_scan_cost(self._rng), label="sense")
        pending = self._collect_inputs()

        # Execute the generated code (per-transition costs are charged inside).
        writes = yield from self._execute_code_cycle(pending, TRANSITIONS_PER_CYCLE)

        # The rest of the monolithic loop's work for this cycle.
        yield Compute(HOUSEKEEPING.sample(self._rng), label="housekeeping")

        # Write c-events to the actuators at the end of the computations.
        if writes:
            yield Compute(
                self.execution_model.output_write_cost(self._rng) * len(writes),
                label="actuate",
            )
            self._apply_outputs(writes)
