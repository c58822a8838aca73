"""Timed statechart modelling language, simulation and verification.

This package substitutes for the Simulink/Stateflow + Simulink Design Verifier
tool chain of the paper: models are flat timed statecharts with ``after`` /
``at`` / ``before`` temporal operators on a millisecond clock, executed with
zero-time transition semantics and verified against bounded-response timing
requirements by explicit-state exploration.
"""

from .builder import StatechartBuilder
from .temporal import before

__all__ = [
    "StatechartBuilder",
    "before",
]
