"""FreeRTOS-like real-time operating system model.

Provides a single-core fixed-priority preemptive scheduler, periodic and
aperiodic tasks written as directive-yielding generators, bounded FIFO message
queues and counting semaphores.  See :mod:`repro.platform.rtos.scheduler` for
the scheduling semantics.
"""

from .directives import Compute
from .scheduler import RTOSScheduler

__all__ = [
    "Compute",
    "RTOSScheduler",
]
