"""Coverage-guided scenario generation on top of the R-/M-testing core.

The paper's evaluation exercises four hand-written GPCA scenarios; this
package generalises them into a declarative scenario *language* plus a
seeded, coverage-guided *generator*:

* :mod:`repro.scenarios.dsl` — :class:`ScenarioProgram`, the declarative
  description of a scenario (setup phase, measured stimulus pattern,
  teardown phase, spacing distribution, target requirement) that compiles to
  plain :class:`repro.core.test_generation.RTestCase` schedules;
* :mod:`repro.scenarios.generator` — :class:`ScenarioSpace` (the bounded
  universe of programs a case study admits) and :class:`ScenarioSampler`
  (seeded sampling and one-knob mutation);
* :mod:`repro.scenarios.explore` — :class:`CoverageGuidedExplorer`, the
  episode loop that executes compiled programs and biases sampling toward
  programs that reach uncovered model transitions, using
  :mod:`repro.core.coverage` as the feedback signal.

Programs are frozen and picklable, so the campaign engine can use them
directly as scenario-axis points (``repro campaign --grid scenarios``), and
``repro explore`` drives the loop from the command line.

See ``docs/architecture.md`` for how this layer relates to the rest of the
stack.
"""

from .dsl import (
    ROLE_SETUP,
    ROLE_TEARDOWN,
    CycleSpacing,
    ScenarioProgram,
    StimulusPattern,
    StimulusStep,
)
from .explore import CoverageGuidedExplorer
from .generator import ScenarioSampler, ScenarioSpace

__all__ = [
    "CoverageGuidedExplorer",
    "CycleSpacing",
    "ROLE_SETUP",
    "ROLE_TEARDOWN",
    "ScenarioProgram",
    "ScenarioSampler",
    "ScenarioSpace",
    "StimulusPattern",
    "StimulusStep",
]
