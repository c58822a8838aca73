"""Baselines from the paper's related work: black-box online testing and
functional (SIL-style) conformance checking."""

from .blackbox_online import BlackBoxOnlineTester
from .functional_conformance import (
    FunctionalConformanceChecker,
    FunctionalStep,
)

__all__ = [
    "BlackBoxOnlineTester",
    "FunctionalConformanceChecker",
    "FunctionalStep",
]
