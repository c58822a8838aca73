"""Data series behind the paper's figures and the ablation sweeps.

The paper's figures are illustrations rather than measurement plots, but each
one corresponds to concrete data this reproduction can compute:

* **Fig. 3-(a)** — the model-level timing view: the tick at which the model
  emits the response after the trigger, against the verified bound;
* **Fig. 3-(b)** — the R-testing view: m-event and c-event instants;
* **Fig. 3-(c)** — the M-testing I/O view: m, i, o, c instants and the three
  delay segments between them;
* **Fig. 3-(d)** — the M-testing transition view: the execution span of every
  transition between the i-event and the o-event.

:func:`fig3_view` assembles all four views for one test sample; the sweep
helpers produce the series used by the ablation benchmarks (violation rate
versus polling period, versus interference load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.delays import DelaySegments
from ..core.m_testing import MTestReport
from ..core.r_testing import RTestReport
from ..core.requirements import TimingRequirement
from ..model.simulation import ModelExecutor
from ..model.statechart import Statechart
from .statistics import violation_rate


@dataclass(frozen=True)
class ModelTimingView:
    """Fig. 3-(a): how the model itself times the trigger/response pair."""

    trigger_tick: int
    response_tick: Optional[int]
    deadline_ticks: int

    @property
    def response_latency_ticks(self) -> Optional[int]:
        if self.response_tick is None:
            return None
        return self.response_tick - self.trigger_tick

    @property
    def within_deadline(self) -> bool:
        latency = self.response_latency_ticks
        return latency is not None and latency <= self.deadline_ticks


@dataclass(frozen=True)
class Fig3View:
    """All four timing views of one stimulus/response sample."""

    sample_index: int
    model: ModelTimingView
    segments: DelaySegments

    @property
    def r_view(self) -> Tuple[Optional[int], Optional[int]]:
        """Fig. 3-(b): (m-event time, c-event time) in microseconds."""
        return self.segments.m_time_us, self.segments.c_time_us

    @property
    def transition_view(self) -> List[Tuple[str, int, int]]:
        """Fig. 3-(d): (transition, start, end) spans in microseconds."""
        return [
            (delay.transition, delay.start_us, delay.end_us)
            for delay in self.segments.transition_delays
        ]

    def render(self) -> str:
        """A compact textual rendering of the four views."""
        lines = [f"Sample {self.sample_index}"]
        latency = self.model.response_latency_ticks
        lines.append(
            f"  (a) model:        response after "
            f"{'unbounded' if latency is None else f'{latency} ticks'} "
            f"(verified bound {self.model.deadline_ticks} ticks)"
        )
        m_time, c_time = self.r_view
        if m_time is not None and c_time is not None:
            lines.append(
                f"  (b) R-testing:    m at {m_time / 1000:.1f} ms, c at {c_time / 1000:.1f} ms "
                f"(latency {(c_time - m_time) / 1000:.1f} ms)"
            )
        else:
            lines.append("  (b) R-testing:    response not observed (MAX)")
        lines.append(
            "  (c) M-testing:    "
            f"input {self._fmt(self.segments.input_delay_us)}, "
            f"code {self._fmt(self.segments.code_delay_us)}, "
            f"output {self._fmt(self.segments.output_delay_us)}"
        )
        spans = ", ".join(
            f"{name}={(end - start) / 1000:.1f} ms" for name, start, end in self.transition_view
        )
        lines.append(f"  (d) transitions:  {spans or 'none recorded'}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(value_us: Optional[int]) -> str:
        return "MAX" if value_us is None else f"{value_us / 1000:.1f} ms"


def model_timing_view(chart: Statechart, requirement: TimingRequirement) -> ModelTimingView:
    """Compute the Fig. 3-(a) view by executing the model on the trigger event."""
    if not requirement.has_model_counterpart:
        raise ValueError("requirement has no model-level counterpart")
    executor = ModelExecutor(chart)
    trigger_tick = 0
    executor.inject(requirement.model_trigger_event)
    executor.advance(requirement.deadline_us // 1000 + 1)
    change = None
    for output_change in executor.output_changes:
        if (
            output_change.variable == requirement.model_response_variable
            and output_change.value == requirement.model_response_value
        ):
            change = output_change
            break
    return ModelTimingView(
        trigger_tick=trigger_tick,
        response_tick=None if change is None else change.tick,
        deadline_ticks=requirement.deadline_us // 1000,
    )


def fig3_views(
    chart: Statechart,
    requirement: TimingRequirement,
    m_report: MTestReport,
) -> List[Fig3View]:
    """One :class:`Fig3View` per segmented sample of an M-testing report."""
    model_view = model_timing_view(chart, requirement)
    return [
        Fig3View(sample_index=segments.sample_index, model=model_view, segments=segments)
        for segments in m_report.segments
    ]


# ----------------------------------------------------------------------
# Ablation sweep series
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: float
    violation_rate: float
    timeout_count: int
    max_latency_ms: Optional[float]
    mean_latency_ms: Optional[float]


def sweep_point(parameter: float, report: RTestReport) -> SweepPoint:
    """Summarise one R-test report as a sweep point."""
    latencies = [sample.latency_us for sample in report.samples]
    observed = report.observed_latencies_us
    return SweepPoint(
        parameter=parameter,
        violation_rate=violation_rate(latencies, report.requirement.deadline_us),
        timeout_count=report.timeout_count,
        max_latency_ms=(max(observed) / 1000) if observed else None,
        mean_latency_ms=(sum(observed) / len(observed) / 1000) if observed else None,
    )


def render_sweep(points: Sequence[SweepPoint], parameter_name: str) -> str:
    """Plain-text rendering of a sweep series (one row per parameter value)."""
    lines = [
        f"{parameter_name:>14} | {'violation rate':>14} | {'MAX':>4} | {'max (ms)':>9} | {'mean (ms)':>9}"
    ]
    lines.append("-" * len(lines[0]))
    for point in sorted(points, key=lambda p: p.parameter):
        max_latency = "-" if point.max_latency_ms is None else f"{point.max_latency_ms:.1f}"
        mean_latency = "-" if point.mean_latency_ms is None else f"{point.mean_latency_ms:.1f}"
        lines.append(
            f"{point.parameter:>14.2f} | {point.violation_rate:>14.2%} | {point.timeout_count:>4} | "
            f"{max_latency:>9} | {mean_latency:>9}"
        )
    return "\n".join(lines)
