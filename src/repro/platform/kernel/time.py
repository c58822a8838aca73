"""Simulated time base.

The whole platform simulator uses **integer microseconds** as its time unit.
Integer arithmetic keeps event ordering exact (no floating point drift), which
matters because the testing framework reasons about differences between
timestamps taken at different abstraction boundaries.

The model layer (``repro.model``) uses *model ticks* of one millisecond,
matching the ``E_CLK`` clock of the paper's Stateflow model;
:data:`US_PER_MODEL_TICK` converts between the two.
"""

from __future__ import annotations

# Conversion constants.  All are plain ints so arithmetic stays exact.
US_PER_MS = 1_000
US_PER_SECOND = 1_000_000

#: Model tick duration (the paper's ``E_CLK`` advances in milliseconds).
US_PER_MODEL_TICK = US_PER_MS


def ms(value: float) -> int:
    """Convert milliseconds to integer microseconds.

    Fractional microsecond remainders are rounded to the nearest microsecond.

    >>> ms(2.5)
    2500
    """
    return int(round(value * US_PER_MS))


def seconds(value: float) -> int:
    """Convert seconds to integer microseconds.

    >>> seconds(0.25)
    250000
    """
    return int(round(value * US_PER_SECOND))


def us(value: int) -> int:
    """Identity helper so call-sites can spell the unit explicitly."""
    return int(value)


def format_us(value_us: int) -> str:
    """Human readable rendering of a time instant or duration.

    >>> format_us(1500)
    '1.500 ms'
    >>> format_us(2_000_000)
    '2.000 s'
    """
    if value_us >= US_PER_SECOND:
        return f"{value_us / US_PER_SECOND:.3f} s"
    return f"{value_us / US_PER_MS:.3f} ms"


class SimClock:
    """A monotonically advancing simulated clock.

    The clock is owned by the discrete-event simulator, which alone writes
    ``_now_us`` (in heap order, so it never moves backwards); every other
    component reads the current instant through ``Simulator.now``.
    """

    __slots__ = ("_now_us",)

    def __init__(self, start_us: int = 0) -> None:
        if start_us < 0:
            raise ValueError("clock cannot start before time zero")
        self._now_us = int(start_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={format_us(self._now_us)})"
