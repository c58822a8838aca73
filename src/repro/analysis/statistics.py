"""Small statistics helpers used by the tables, figures and benchmarks.

Kept dependency-free (plain Python) so the core library does not require
NumPy; the benchmark harness may still use NumPy for its own post-processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample of durations (microseconds)."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float
    stdev: float
    p95: float

    @classmethod
    def of(cls, values: Sequence[float]) -> Optional["Summary"]:
        values = [float(value) for value in values if value is not None]
        if not values:
            return None
        ordered = sorted(values)
        mean = sum(ordered) / len(ordered)
        variance = sum((value - mean) ** 2 for value in ordered) / len(ordered)
        return cls(
            count=len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            mean=mean,
            median=percentile(ordered, 50.0),
            stdev=math.sqrt(variance),
            p95=percentile(ordered, 95.0),
        )

    def scaled(self, factor: float) -> "Summary":
        """Unit conversion helper (e.g. microseconds to milliseconds)."""
        return Summary(
            count=self.count,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
            mean=self.mean * factor,
            median=self.median * factor,
            stdev=self.stdev * factor,
            p95=self.p95 * factor,
        )


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of already-meaningful numeric values."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(float(value) for value in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    # Interpolate as base + fraction * span: exact when both bracketing values
    # are equal, and free of the rounding overshoot a*(1-f) + b*f can produce.
    return ordered[low] + fraction * (ordered[high] - ordered[low])


def violation_rate(latencies_us: Sequence[Optional[int]], deadline_us: int) -> float:
    """Fraction of samples that violated the deadline (missing responses count)."""
    if not latencies_us:
        return 0.0
    violations = sum(
        1 for latency in latencies_us if latency is None or latency > deadline_us
    )
    return violations / len(latencies_us)
