"""Implementation Scheme 3: multi-threaded integration plus interfering threads.

From the paper:

    "Often, there are additional threads in addition to threads used by the
    model-based implementation (e.g., network drivers on infusion pump
    systems).  [...]  In our case study, three additional threads are
    scheduled.  One of the threads has the same priority with the CODE(M)
    thread, and the other two threads have a higher and a lower priority than
    the CODE(M) thread respectively.  These threads do not communicate with
    the CODE(M), but execute their own independent tasks."

Scheme 3 therefore reuses the scheme-2 topology and adds a configurable set of
periodic CPU-burning tasks.  The default interference profile (a heavy
higher-priority thread plus an equal- and a lower-priority thread) is what
starves the CODE(M) thread badly enough to produce the large violations and
MAX (time-out) samples of the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Tuple

from ..platform.kernel.random import JitterModel, uniform
from ..platform.kernel.time import ms
from ..platform.rtos.directives import Compute
from .base import SchemeConfig
from .multi_threaded import CODEM_PRIORITY, MultiThreadedSystem


@dataclass(frozen=True)
class InterferenceTaskConfig:
    """One interfering thread: its priority relative to the CODE(M) thread,
    its period and how much CPU it burns per activation."""

    name: str
    #: Priority offset relative to the CODE(M) thread (+1 = higher, 0 = equal, -1 = lower).
    priority_offset: int
    period_us: int
    burst: JitterModel


def default_interference_profile() -> Tuple[InterferenceTaskConfig, ...]:
    """The three interfering threads of the case study.

    The higher-priority thread models a network/communication driver with a
    heavy duty cycle; the equal-priority thread models a logging service; the
    lower-priority thread models background diagnostics.
    """
    return (
        InterferenceTaskConfig(
            name="net_driver",
            priority_offset=+1,
            period_us=ms(60),
            burst=uniform(ms(50), ms(14)),
        ),
        InterferenceTaskConfig(
            name="logger",
            priority_offset=0,
            period_us=ms(90),
            burst=uniform(ms(30), ms(8)),
        ),
        InterferenceTaskConfig(
            name="diagnostics",
            priority_offset=-1,
            period_us=ms(200),
            burst=uniform(ms(25), ms(8)),
        ),
    )


@dataclass
class InterferedConfig(SchemeConfig):
    """Configuration of scheme 3: scheme 2 plus interfering threads."""

    interference: Tuple[InterferenceTaskConfig, ...] = field(
        default_factory=default_interference_profile
    )

    def scaled_interference(self, factor: float) -> "InterferedConfig":
        """A copy whose interference bursts are scaled by ``factor`` (ablation)."""
        scaled = tuple(
            InterferenceTaskConfig(
                name=task.name,
                priority_offset=task.priority_offset,
                period_us=task.period_us,
                burst=task.burst.scaled(factor),
            )
            for task in self.interference
        )
        clone = InterferedConfig(**{**self.__dict__})
        clone.interference = scaled
        return clone


class InterferedSystem(MultiThreadedSystem):
    """Scheme 3: the scheme-2 pipeline competing with unrelated threads."""

    scheme_name = "scheme3-interfered"

    def __init__(self, bundle, artifacts, config: Optional[InterferedConfig] = None) -> None:
        super().__init__(bundle, artifacts, config or InterferedConfig())
        self.config: InterferedConfig

    def _create_tasks(self) -> None:
        super()._create_tasks()
        for index, task_config in enumerate(self.config.interference):
            priority = max(0, CODEM_PRIORITY + task_config.priority_offset)
            self.scheduler.create_task(
                task_config.name,
                priority=priority,
                job_factory=self._interference_job_factory(task_config, index),
                period_us=task_config.period_us,
                # Stagger releases a little so interferers do not all align with
                # the pipeline tasks at time zero.
                offset_us=(index + 1) * ms(3),
            )

    def _interference_job_factory(self, task_config: InterferenceTaskConfig, index: int):
        rng = self._interference_rng(task_config.name, index)

        def job() -> Generator[Any, Any, None]:
            yield Compute(task_config.burst.sample(rng), label=f"burst:{task_config.name}")

        return job

    def _interference_rng(self, name: str, index: int):
        from ..platform.kernel.random import RandomSource

        return RandomSource(self.config.seed).stream(f"interference:{name}:{index}")
