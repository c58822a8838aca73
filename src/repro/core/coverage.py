"""Test coverage and sufficiency metrics.

The paper's conclusion names "test coverage and test sufficiency from which
test cases can be systematically generated" as future work.  This module
implements the two metrics that make the R-M workflow auditable today:

* **transition coverage** — which generated transitions were actually executed
  by a test run (from the transition probes or the runtime firing history);
* **sample sufficiency** — how confident the pass/fail verdict is given the
  number of samples observed, using a Wilson score interval on the violation
  proportion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Set

from ..codegen.ir import CodeModel
from .four_variables import EventKind, Trace
from .r_testing import RTestReport


@dataclass
class TransitionCoverage:
    """Coverage of generated transitions by one or more test executions."""

    all_transitions: List[str]
    covered: Set[str] = field(default_factory=set)

    @classmethod
    def for_code_model(cls, code_model: CodeModel) -> "TransitionCoverage":
        return cls(all_transitions=list(code_model.transition_names))

    # ------------------------------------------------------------------
    def add_trace(self, trace: Trace) -> None:
        """Count transitions observed through TRANSITION_START probes.

        The probe lookup rides the trace's per-kind index, and membership is
        checked against a set so long traces don't pay a list scan per probe.
        """
        known = set(self.all_transitions)
        for event in trace.select(kind=EventKind.TRANSITION_START):
            if event.variable in known:
                self.covered.add(event.variable)

    # ------------------------------------------------------------------
    @property
    def uncovered(self) -> List[str]:
        return [name for name in self.all_transitions if name not in self.covered]

    @property
    def ratio(self) -> float:
        if not self.all_transitions:
            return 1.0
        return len(self.covered) / len(self.all_transitions)

    def summary(self) -> str:
        return (
            f"transition coverage {len(self.covered)}/{len(self.all_transitions)} "
            f"({self.ratio:.0%}); uncovered: {', '.join(self.uncovered) or 'none'}"
        )


@dataclass
class StateCoverage:
    """Coverage of generated states by one or more test executions.

    States are counted as covered when a transition *entering* them (or
    leaving them, for the initial state) was observed.
    """

    all_states: List[str]
    covered: Set[str] = field(default_factory=set)

    @classmethod
    def for_code_model(cls, code_model: CodeModel) -> "StateCoverage":
        coverage = cls(all_states=list(code_model.state_names))
        coverage._targets_by_transition = {
            row.name: (
                code_model.state_names[row.source_index],
                code_model.state_names[row.target_index],
            )
            for row in code_model.transitions
        }
        return coverage

    def add_trace(self, trace: Trace) -> None:
        """Count states entered/left according to TRANSITION_START probes."""
        targets = getattr(self, "_targets_by_transition", {})
        for event in trace.select(kind=EventKind.TRANSITION_START):
            pair = targets.get(event.variable)
            if pair is None:
                continue
            source, target = pair
            self.covered.add(source)
            self.covered.add(target)

    @property
    def uncovered(self) -> List[str]:
        return [name for name in self.all_states if name not in self.covered]

    @property
    def ratio(self) -> float:
        if not self.all_states:
            return 1.0
        return len(self.covered) / len(self.all_states)

    def summary(self) -> str:
        return (
            f"state coverage {len(self.covered)}/{len(self.all_states)} "
            f"({self.ratio:.0%}); uncovered: {', '.join(self.uncovered) or 'none'}"
        )


@dataclass(frozen=True)
class SufficiencyAssessment:
    """Confidence assessment of a pass/fail verdict from a finite sample."""

    samples: int
    violations: int
    confidence: float
    violation_rate: float
    interval_low: float
    interval_high: float


def wilson_interval(successes: int, samples: int, confidence: float = 0.95) -> tuple:
    """Wilson score interval for a binomial proportion (no SciPy dependency)."""
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if samples == 0:
        return 0.0, 1.0
    # Imported here: ``statistics`` loads ``fractions`` and ``decimal``
    # (≈ 4 ms), which no CLI command needs at start-up.
    from statistics import NormalDist

    # The two-sided quantile, taken from the lower tail: ``1 - confidence`` is
    # exact in floating point where ``0.5 + confidence / 2`` rounds to 1.0.
    z = -NormalDist().inv_cdf((1 - confidence) / 2)
    phat = successes / samples
    denominator = 1 + z * z / samples
    centre = phat + z * z / (2 * samples)
    margin = z * math.sqrt((phat * (1 - phat) + z * z / (4 * samples)) / samples)
    # The Wilson interval always contains the observed proportion; clamp to
    # that mathematical guarantee, because at phat=0 (or 1) centre and margin
    # are equal in exact arithmetic and sqrt rounding can leave a bound on
    # the wrong side of phat by ~1e-17.
    low = max(0.0, min(phat, (centre - margin) / denominator))
    high = min(1.0, max(phat, (centre + margin) / denominator))
    return low, high


def assess_sufficiency(report: RTestReport, confidence: float = 0.95) -> SufficiencyAssessment:
    """Assess how much confidence the sample count gives in the R-test verdict."""
    samples = len(report.samples)
    violations = report.violation_count
    low, high = wilson_interval(violations, samples, confidence)
    return SufficiencyAssessment(
        samples=samples,
        violations=violations,
        confidence=confidence,
        violation_rate=(violations / samples) if samples else 0.0,
        interval_low=low,
        interval_high=high,
    )
