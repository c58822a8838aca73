"""Baseline: functional (SIL-style) conformance checking without timing.

The paper's first comparison point is Software-in-the-Loop / Hardware-in-the-
Loop testing of generated code against the Simulink/Stateflow model: it checks
that "the source code matches the desired behavior developed and specified in
the model" but "lacks an ability to test timing aspects of the code running on
a target platform".

This baseline replays i-event sequences against both the model executor and
the generated code and compares the *sequences* of output writes, ignoring all
timing.  It will happily pass an implementation scheme whose R-testing fails —
which is exactly the gap the paper's framework closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from ..codegen.generated import GeneratedCode
from ..codegen.generator import GeneratedArtifacts
from ..model.simulation import ModelExecutor
from ..model.statechart import Statechart


@dataclass(frozen=True)
class FunctionalStep:
    """One step of a functional conformance scenario."""

    #: Model ticks to advance before injecting the events of this step.
    advance_ticks: int = 0
    #: Input events injected at this step (in order).
    events: Tuple[str, ...] = ()


@dataclass(frozen=True)
class OutputDifference:
    """A divergence between the model's and the code's output sequences."""

    step_index: int
    variable: str
    model_value: Any
    code_value: Any


@dataclass
class ConformanceReport:
    """Outcome of one functional conformance run."""

    scenario_name: str
    steps: int
    differences: List[OutputDifference] = field(default_factory=list)
    final_state_matches: bool = True

    @property
    def conformant(self) -> bool:
        return not self.differences and self.final_state_matches

    def summary(self) -> str:
        verdict = "PASS" if self.conformant else "FAIL"
        return (
            f"[{verdict}] functional conformance ({self.scenario_name}): "
            f"{self.steps} steps, {len(self.differences)} output differences, "
            "timing not assessed"
        )


class FunctionalConformanceChecker:
    """Compares the generated code against the model, ignoring timing."""

    def __init__(self, chart: Statechart, artifacts: GeneratedArtifacts) -> None:
        self.chart = chart
        self.artifacts = artifacts

    def run(self, steps: Sequence[FunctionalStep], scenario_name: str = "scenario") -> ConformanceReport:
        """Replay the scenario on both executors and diff their outputs per step."""
        model = ModelExecutor(self.chart)
        code: GeneratedCode = self.artifacts.new_instance()
        report = ConformanceReport(scenario_name=scenario_name, steps=len(steps))

        for index, step in enumerate(steps):
            if step.advance_ticks:
                model.advance(step.advance_ticks)
                code.advance_clock(step.advance_ticks)
                code.scan()
            for event in step.events:
                model.inject(event)
                code.set_input(event)
                code.scan()
            for variable, model_value in model.outputs.items():
                code_value = code.outputs.get(variable)
                if code_value != model_value:
                    report.differences.append(
                        OutputDifference(
                            step_index=index,
                            variable=variable,
                            model_value=model_value,
                            code_value=code_value,
                        )
                    )
        report.final_state_matches = model.current_state == code.state_name
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def bolus_scenario() -> List[FunctionalStep]:
        """The canonical GPCA scenario: request a bolus, let it complete."""
        return [
            FunctionalStep(advance_ticks=10, events=("i-BolusReq",)),
            FunctionalStep(advance_ticks=200),
            FunctionalStep(advance_ticks=4200),
        ]
