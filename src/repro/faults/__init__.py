"""Fault-injection and mutation-analysis subsystem.

The R-/M-testing stack so far only ever tested *correct* implementations —
this package measures the method's **detection power** by seeding defects on
both sides of the model/platform divide and asking which requirement tests
notice:

* :mod:`repro.faults.models` — composable, seed-deterministic **platform
  fault models** (clock drift, execution-time inflation and sporadic
  overruns, queue message drop/delay/reorder, priority-inversion windows,
  stuck/glitching sensors) bundled into declarative :class:`FaultPlan` s and
  applied via wrapper hooks; an empty plan is a strict no-op;
* :mod:`repro.faults.mutants` — a **model-mutant generator** over
  :mod:`repro.model.statechart` (timing-bound ±δ, guard negation, transition
  retarget, action drop) with structural fingerprint dedup and exclusion of
  known-equivalent mutants;
* :mod:`repro.faults.matrix` — the **kill-matrix engine**: expands a
  (faults × mutants × schemes × scenarios) grid into stock campaign
  ``RunSpec`` s, fans it through the parallel campaign runner and scores
  detections/kills against the clean baselines;
* :mod:`repro.faults.hunt` — the :class:`SurvivorHunter`, the coverage-guided
  exploration loop re-aimed at mutants the fixed scenarios cannot kill
  (differential testing over generated scenario programs).

Entry points: ``repro faults`` (CLI) and ``examples/fault_kill_matrix.py``.
The stock GPCA matrix's verdicts are pinned by ``tests/faults/test_matrix.py``
and its speed is measured by ``python3 ledger/run.py --workload faults-gpca``.
See ``docs/architecture.md`` for where the layer sits in the stack.
"""

from .hunt import SurvivorHunter
from .matrix import (
    FaultMatrixSpec,
    KillMatrix,
    default_matrix_spec,
    run_kill_matrix,
)
from .models import (
    ClockDriftFault,
    ExecutionInflationFault,
    FaultPlan,
    PriorityInversionFault,
    QueueFault,
    SensorGlitchFault,
    SensorStuckFault,
    default_fault_suite,
    fault_from_dict,
)
from .mutants import (
    MutantError,
    MutantSpec,
    generate_mutants,
)

__all__ = [
    "ClockDriftFault",
    "ExecutionInflationFault",
    "FaultMatrixSpec",
    "FaultPlan",
    "KillMatrix",
    "MutantError",
    "MutantSpec",
    "PriorityInversionFault",
    "QueueFault",
    "SensorGlitchFault",
    "SensorStuckFault",
    "SurvivorHunter",
    "default_fault_suite",
    "default_matrix_spec",
    "fault_from_dict",
    "generate_mutants",
    "run_kill_matrix",
]
