"""Discrete-event simulation kernel: clock, event queue, randomness."""

from .simulator import Simulator

__all__ = [
    "Simulator",
]
