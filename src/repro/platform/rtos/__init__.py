"""FreeRTOS-like real-time operating system model.

Provides a single-core fixed-priority preemptive scheduler, periodic tasks
written as directive-yielding generators and bounded FIFO message queues with
non-blocking send and receive.  See :mod:`repro.platform.rtos.scheduler` for
the scheduling semantics.
"""

from .directives import Compute
from .scheduler import RTOSScheduler

__all__ = [
    "Compute",
    "RTOSScheduler",
]
