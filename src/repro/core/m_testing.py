"""M-testing: measuring the delay segments behind a timing violation.

When R-testing reports that a requirement is violated, M-testing re-examines
the full trace — this time using the i- and o-events at the CODE(M) boundary
and the transition start/end probes — and decomposes every sample's
end-to-end latency into Input-Delay, CODE(M)-Delay, Output-Delay and
per-transition delays.  The decomposition tells the engineer *where* the time
went (the paper's stated purpose: "useful information in debugging the timing
requirement violation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .delays import DelaySegments, SegmentStatistics, TransitionDelay, summarize_segments
from .four_variables import EventKind, FourVariableInterface, Trace
from .oracle import ResponseMatcher
from .r_testing import RSample, RTestReport
from .requirements import EventSpec, TimingRequirement


class MTestingError(RuntimeError):
    """Raised when the trace lacks the information M-testing needs."""


@dataclass
class MTestReport:
    """Delay segmentation of every sample of one R-test execution."""

    sut_name: str
    requirement: TimingRequirement
    segments: List[DelaySegments] = field(default_factory=list)
    analyzed_sample_indices: List[int] = field(default_factory=list)

    @property
    def complete_segments(self) -> List[DelaySegments]:
        return [segment for segment in self.segments if segment.complete]

    def statistics(self) -> List[SegmentStatistics]:
        return summarize_segments(self.segments)

    def dominant_segment(self) -> Optional[str]:
        """The segment that contributes the most latency on average.

        This is the headline diagnostic M-testing adds over R-testing: for the
        single-threaded scheme it points at the input/output boundary
        (sampling and end-of-cycle actuation), for the interfered scheme it
        points at the CODE(M) segment (preemption).
        """
        totals: Dict[str, int] = {"input": 0, "code": 0, "output": 0}
        counted = 0
        for segment in self.segments:
            if not segment.complete:
                continue
            totals["input"] += segment.input_delay_us
            totals["code"] += segment.code_delay_us
            totals["output"] += segment.output_delay_us
            counted += 1
        if counted == 0:
            return None
        return max(totals, key=lambda key: totals[key])

    def mean_transition_delay_us(self, transition: str) -> Optional[float]:
        """Mean wall-clock delay of one named model transition across samples."""
        values = [
            delay.duration_us
            for segment in self.segments
            for delay in segment.transition_delays
            if delay.transition == transition
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def transition_names(self) -> List[str]:
        names: List[str] = []
        for segment in self.segments:
            for delay in segment.transition_delays:
                if delay.transition not in names:
                    names.append(delay.transition)
        return names

    def summary(self) -> str:
        dominant = self.dominant_segment() or "n/a"
        return (
            f"M-testing of {self.requirement.requirement_id} on {self.sut_name}: "
            f"{len(self.segments)} samples segmented, dominant segment: {dominant}"
        )


class MTestAnalyzer:
    """Extracts delay segments from a fully instrumented trace."""

    def __init__(self, interface: FourVariableInterface, requirement: TimingRequirement) -> None:
        self.requirement = requirement
        self._input_variable = interface.input_for_monitored(requirement.stimulus.variable)
        self._output_variable = interface.output_for_controlled(requirement.response.variable)
        if self._input_variable is None:
            raise MTestingError(
                f"no Input-Device mapping for monitored variable "
                f"{requirement.stimulus.variable!r}; declare it with link_input()"
            )
        if self._output_variable is None:
            raise MTestingError(
                f"no Output-Device mapping for controlled variable "
                f"{requirement.response.variable!r}; declare it with link_output()"
            )
        #: Which o-variable write counts as the response at the CODE(M) boundary.
        if requirement.model_response_variable is not None:
            self._output_spec = EventSpec.becomes(
                requirement.model_response_variable, requirement.model_response_value
            )
        else:
            self._output_spec = EventSpec.any_change(self._output_variable)

    # ------------------------------------------------------------------
    def analyze(
        self,
        trace: Trace,
        *,
        only_samples: Optional[Sequence[RSample]] = None,
        sut_name: str = "sut",
    ) -> MTestReport:
        """Segment the latency of every stimulus in ``trace``.

        ``only_samples`` restricts the analysis to specific R-samples — the
        paper runs M-testing "for those test cases that violate the timing
        requirement in R-testing" — while the default analyses every stimulus,
        which the benchmark harness uses to tabulate all ten samples.
        """
        matcher = ResponseMatcher(self.requirement.stimulus, self.requirement.response)
        pairs = matcher.match(trace, timeout_us=self.requirement.effective_timeout_us)
        wanted_indices = (
            {sample.index for sample in only_samples} if only_samples is not None else None
        )
        report = MTestReport(sut_name=sut_name, requirement=self.requirement)
        for pair in pairs:
            if wanted_indices is not None and pair.index not in wanted_indices:
                continue
            report.analyzed_sample_indices.append(pair.index)
            report.segments.append(self._segment_pair(trace, pair.index, pair))
        return report

    def analyze_violations(self, r_report: RTestReport, *, sut_name: Optional[str] = None) -> MTestReport:
        """M-test exactly the samples that violated the requirement in R-testing."""
        if r_report.trace is None:
            raise MTestingError("the R-test report carries no trace to analyze")
        return self.analyze(
            r_report.trace,
            only_samples=r_report.violating_samples,
            sut_name=sut_name or r_report.sut_name,
        )

    # ------------------------------------------------------------------
    def _segment_pair(self, trace: Trace, index: int, pair) -> DelaySegments:
        m_time = pair.stimulus.timestamp_us
        c_time = pair.response.timestamp_us if pair.response is not None else None
        search_end = c_time if c_time is not None else m_time + self.requirement.effective_timeout_us

        i_event = ResponseMatcher.first_event_after(
            trace, EventKind.I, self._input_variable, m_time, before_us=search_end
        )
        i_time = i_event.timestamp_us if i_event is not None else None

        o_event = None
        if i_time is not None:
            o_event = ResponseMatcher.first_event_after(
                trace,
                EventKind.O,
                self._output_spec.variable,
                i_time,
                before_us=search_end,
                spec=self._output_spec,
            )
        o_time = o_event.timestamp_us if o_event is not None else None

        transitions = self._transition_delays(trace, i_time, o_time)
        return DelaySegments(
            sample_index=index,
            m_time_us=m_time,
            i_time_us=i_time,
            o_time_us=o_time,
            c_time_us=c_time,
            transition_delays=transitions,
        )

    @staticmethod
    def _transition_delays(
        trace: Trace, start_us: Optional[int], end_us: Optional[int]
    ) -> List[TransitionDelay]:
        """Pair transition start/end probes falling between the i- and o-events."""
        if start_us is None:
            return []
        window_end = end_us
        delays: List[TransitionDelay] = []
        open_starts: Dict[str, int] = {}
        probes = trace.select_kinds(
            (EventKind.TRANSITION_START, EventKind.TRANSITION_END),
            after_us=start_us,
            before_us=window_end,
        )
        for event in probes:
            if event.kind is EventKind.TRANSITION_START:
                open_starts[event.variable] = event.timestamp_us
            elif event.kind is EventKind.TRANSITION_END:
                begun = open_starts.pop(event.variable, None)
                if begun is not None:
                    delays.append(TransitionDelay(event.variable, begun, event.timestamp_us))
        return delays
