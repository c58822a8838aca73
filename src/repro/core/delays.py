"""Delay-segment data structures produced by M-testing.

The paper defines four delay segments for a stimulus/response pair
(Fig. 3-(c) and (d)):

* **Input-Delay** — m-event to i-event (sensing, driver, queueing before
  CODE(M) reads the input);
* **CODE(M)-Delay** — i-event to o-event (the generated code's reaction,
  including the scheduling of its invocations);
* **Output-Delay** — o-event to c-event (queueing, actuation thread, device
  driver, physical actuation);
* **Transition-Delays** — wall-clock duration of each generated transition
  executed between the i-event and the o-event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class TransitionDelay:
    """Wall-clock execution span of one generated transition."""

    transition: str
    start_us: int
    end_us: int

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError("transition cannot end before it starts")

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass
class DelaySegments:
    """The segmented latency of one stimulus/response pair.

    Any of the boundary timestamps may be ``None`` when the corresponding
    event was not observed (e.g. a MAX sample where the c-event never
    appeared); derived segment properties are then ``None`` too.
    """

    sample_index: int
    m_time_us: Optional[int]
    i_time_us: Optional[int]
    o_time_us: Optional[int]
    c_time_us: Optional[int]
    transition_delays: List[TransitionDelay] = field(default_factory=list)

    @staticmethod
    def _diff(later: Optional[int], earlier: Optional[int]) -> Optional[int]:
        if later is None or earlier is None:
            return None
        return later - earlier

    @property
    def input_delay_us(self) -> Optional[int]:
        """m-event to i-event."""
        return self._diff(self.i_time_us, self.m_time_us)

    @property
    def code_delay_us(self) -> Optional[int]:
        """i-event to o-event."""
        return self._diff(self.o_time_us, self.i_time_us)

    @property
    def output_delay_us(self) -> Optional[int]:
        """o-event to c-event."""
        return self._diff(self.c_time_us, self.o_time_us)

    @property
    def end_to_end_us(self) -> Optional[int]:
        """m-event to c-event (what R-testing measures)."""
        return self._diff(self.c_time_us, self.m_time_us)

    @property
    def complete(self) -> bool:
        """True when every boundary event was observed."""
        return None not in (self.m_time_us, self.i_time_us, self.o_time_us, self.c_time_us)

    def segments_consistent(self, tolerance_us: int = 0) -> bool:
        """Do the three segments add up to the end-to-end latency?

        The decomposition is exact by construction; the tolerance parameter
        exists for traces gathered with coarse platform timers.
        """
        if not self.complete:
            return False
        total = self.input_delay_us + self.code_delay_us + self.output_delay_us
        return abs(total - self.end_to_end_us) <= tolerance_us

    def dominant_segment(self) -> Optional[str]:
        """Name of the largest segment (``input`` / ``code`` / ``output``)."""
        if not self.complete:
            return None
        segments = {
            "input": self.input_delay_us,
            "code": self.code_delay_us,
            "output": self.output_delay_us,
        }
        return max(segments, key=lambda key: segments[key])


@dataclass(frozen=True)
class SegmentStatistics:
    """Aggregate statistics of one delay segment across samples."""

    name: str
    count: int
    min_us: int
    max_us: int
    mean_us: float

    @classmethod
    def from_values(cls, name: str, values: Sequence[int]) -> Optional["SegmentStatistics"]:
        values = [value for value in values if value is not None]
        if not values:
            return None
        return cls(
            name=name,
            count=len(values),
            min_us=min(values),
            max_us=max(values),
            mean_us=sum(values) / len(values),
        )


def summarize_segments(segments: Sequence[DelaySegments]) -> List[SegmentStatistics]:
    """Summary statistics of every delay segment over a set of samples."""
    summaries = []
    for name, extractor in (
        ("input_delay", lambda s: s.input_delay_us),
        ("code_delay", lambda s: s.code_delay_us),
        ("output_delay", lambda s: s.output_delay_us),
        ("end_to_end", lambda s: s.end_to_end_us),
    ):
        stats = SegmentStatistics.from_values(name, [extractor(segment) for segment in segments])
        if stats is not None:
            summaries.append(stats)
    return summaries
