"""R-testing: requirement-conformance testing at the m/c boundary.

R-testing drives the implemented system with a schedule of m-event stimuli and
checks every observed ``m -> c`` latency against the requirement's deadline.
Only monitored and controlled variables are used — the paper is explicit that
R-test cases "are generated in order to check whether the implemented system
conforms to the requirement using m and c variables only".

A sample verdict is one of:

* **PASS** — the response arrived within the deadline;
* **FAIL** — the response arrived, but after the deadline;
* **MAX**  — no response was observed before the requirement's time-out
  (rendered exactly as the paper's Table I renders it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from .four_variables import Trace
from .oracle import ResponseMatcher
from .requirements import TimingRequirement
from .sut import SutFactory
from .test_generation import RTestCase


class SampleVerdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    MAX = "max"


@dataclass(frozen=True)
class RSample:
    """The R-testing outcome of one stimulus."""

    index: int
    stimulus_time_us: int
    response_time_us: Optional[int]
    latency_us: Optional[int]
    verdict: SampleVerdict

    @property
    def passed(self) -> bool:
        return self.verdict is SampleVerdict.PASS

    @property
    def timed_out(self) -> bool:
        return self.verdict is SampleVerdict.MAX

    def latency_label(self) -> str:
        """Render the latency the way the paper's Table I does (``MAX`` on time-out)."""
        if self.latency_us is None:
            return "MAX"
        return f"{self.latency_us / 1000:.1f}"


@dataclass
class RTestReport:
    """The outcome of running one R-test case against one implemented system."""

    sut_name: str
    test_case: RTestCase
    samples: List[RSample] = field(default_factory=list)
    trace: Optional[Trace] = None

    @property
    def requirement(self) -> TimingRequirement:
        return self.test_case.requirement

    @property
    def passed(self) -> bool:
        """True when every sample met the deadline."""
        return bool(self.samples) and all(sample.passed for sample in self.samples)

    @property
    def violation_count(self) -> int:
        return sum(1 for sample in self.samples if not sample.passed)

    @property
    def timeout_count(self) -> int:
        return sum(1 for sample in self.samples if sample.timed_out)

    @property
    def violating_samples(self) -> List[RSample]:
        return [sample for sample in self.samples if not sample.passed]

    @property
    def observed_latencies_us(self) -> List[int]:
        return [sample.latency_us for sample in self.samples if sample.latency_us is not None]

    @property
    def max_latency_us(self) -> Optional[int]:
        latencies = self.observed_latencies_us
        return max(latencies) if latencies else None

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        worst = "MAX" if self.timeout_count else (
            f"{self.max_latency_us / 1000:.1f} ms" if self.max_latency_us is not None else "n/a"
        )
        return (
            f"[{verdict}] {self.requirement.requirement_id} on {self.sut_name}: "
            f"{len(self.samples)} samples, {self.violation_count} violations "
            f"({self.timeout_count} MAX), worst latency {worst}, "
            f"deadline {self.requirement.deadline_us / 1000:.0f} ms"
        )


def execute_r_test(sut_factory: SutFactory, test_case: RTestCase) -> RTestReport:
    """Execute one R-test case: a pure function of (factory, test case).

    Builds a fresh system from the factory, injects the stimuli, runs to the
    case's horizon and judges every sample.  Given a deterministic factory
    (one whose systems are fully seeded) the returned report is a pure
    function of its arguments, which is what lets the campaign engine dispatch
    runs to worker processes and still aggregate bit-identical results.
    """
    sut = sut_factory()
    for stimulus in test_case.stimuli:
        sut.apply_stimulus(stimulus)
    sut.run(test_case.run_horizon_us)
    return evaluate_r_trace(sut.name, test_case, sut.trace)


def evaluate_r_trace(sut_name: str, test_case: RTestCase, trace: Trace) -> RTestReport:
    """Judge a recorded trace against the test case's requirement (pure function).

    :func:`execute_r_test` ends here; recorded traces (or traces from real
    hardware) can be judged again without re-running the system.
    """
    requirement = test_case.requirement
    # R-testing must not look at i/o/transition events at all.  The matcher's
    # indexed kind/variable queries only ever touch the m- and c-buckets, so
    # matching the full trace is exactly equivalent to matching a copy
    # restricted to [M, C] — without the O(n) restriction pass per evaluation.
    matcher = ResponseMatcher(requirement.stimulus, requirement.response)
    pairs = matcher.match(trace, timeout_us=requirement.effective_timeout_us)
    samples: List[RSample] = []
    for pair in pairs:
        if pair.response is None:
            verdict = SampleVerdict.MAX
        elif requirement.check_latency(pair.latency_us):
            verdict = SampleVerdict.PASS
        else:
            verdict = SampleVerdict.FAIL
        samples.append(
            RSample(
                index=pair.index,
                stimulus_time_us=pair.stimulus.timestamp_us,
                response_time_us=pair.response.timestamp_us if pair.response else None,
                latency_us=pair.latency_us,
                verdict=verdict,
            )
        )
    return RTestReport(sut_name=sut_name, test_case=test_case, samples=samples, trace=trace)
