"""The code generator: statechart in, CODE(M) artefacts out.

This is the stand-in for RealTime Workshop / Simulink Coder in the paper's
tool chain.  Generation performs three steps:

1. validate the statechart (errors abort generation, warnings are attached to
   the artefacts);
2. lower it to the transition-table IR, whose rows keep each model
   transition's name, index and source and target states;
3. package the executable runtime factory and the C-like source text into
   :class:`GeneratedArtifacts`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..model.statechart import Statechart
from ..model.validation import Finding, assert_valid
from .c_emitter import emit_c_source
from .generated import GeneratedCode
from .ir import CodeModel, lower_statechart


@dataclass
class GeneratedArtifacts:
    """Everything produced by one code-generation run."""

    chart: Statechart
    code_model: CodeModel
    c_source: str
    warnings: List[Finding] = field(default_factory=list)

    def new_instance(self) -> GeneratedCode:
        """Instantiate a fresh CODE(M) runtime (equivalent to flashing the target)."""
        return GeneratedCode(self.code_model)

    def summary(self) -> str:
        """One-line description used by reports and examples."""
        return (
            f"CODE({self.chart.name}): {len(self.code_model.state_names)} states, "
            f"{len(self.code_model.transitions)} transitions, "
            f"{len(self.code_model.input_names)} inputs, "
            f"{len(self.code_model.output_initials)} outputs"
        )


def generate_code(chart: Statechart) -> GeneratedArtifacts:
    """Generate artefacts for ``chart``; raises on structural errors."""
    warnings = assert_valid(chart)
    code_model = lower_statechart(chart)
    return GeneratedArtifacts(
        chart=chart,
        code_model=code_model,
        c_source=emit_c_source(code_model),
        warnings=warnings,
    )
