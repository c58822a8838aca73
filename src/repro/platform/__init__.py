"""Target-platform simulation: DES kernel, RTOS and device drivers.

This package is the substitute for the paper's physical test bench (an ARM7
micro-controller running FreeRTOS, with its sensors and actuators).  It
produces the same kind of artefact the paper's measurements rely on:
timestamped event traces at the m/i/o/c boundaries of the implemented system.
It holds no case-study code: each system declares its devices as specs
(:mod:`repro.systems.platform`).
"""

from .kernel import Simulator

__all__ = [
    "Simulator",
]
