"""A small end-to-end fault-injection / mutation-analysis kill matrix.

Runs a deliberately tiny grid — three platform fault plans and two model
mutants against implementation schemes 1 and 3 on two GPCA scenarios — and
prints the scored kill matrix.  Three things are worth noticing in the
output:

* platform faults are *detected* (and mutants *killed*) only at coordinates
  whose clean baseline passes — scheme 3's baselines fail on their own (that
  is the paper's Table I result), so nothing can be attributed there and the
  cells read ``(base fails)``;
* the queue fault ends up *undetected* in this tiny grid: it is a structural
  no-op on scheme 1 (no queues), and on scheme 3 — where it would bite — the
  failing baseline blocks attribution.  Fault detection needs a conformant
  reference scheme, which is why the default ``repro faults`` matrix runs the
  fault axis on schemes 1 *and* 2;
* dropping the ``t_clear_alarm`` buzzer action is invisible to REQ1's
  bolus-request scenario and only dies to the alarm-clear scenario — the
  kill matrix is exactly the map of *which requirement sees which defect*.

Run with ``PYTHONPATH=src python examples/fault_kill_matrix.py`` (or after
``pip install -e .``).
"""

from __future__ import annotations

from repro.faults.matrix import FaultMatrixSpec, run_kill_matrix
from repro.faults.models import ExecutionInflationFault, FaultPlan, QueueFault, SensorStuckFault
from repro.faults.mutants import generate_mutants
from repro.gpca.model import build_fig2_statechart

# Three fault plans: WCET inflation, a stuck bolus button, lossy IPC.
FAULTS = (
    FaultPlan((ExecutionInflationFault(factor=3.0),), name="exec-inflation"),
    FaultPlan((SensorStuckFault(device="bolus_button"),), name="stuck-button"),
    FaultPlan((QueueFault(queue="i_events", drop_probability=0.7),), name="queue-loss"),
)

# Two mutants picked from the generated set: one on the REQ1 path, one on REQ4's.
WANTED_MUTANTS = ("drop:t_start_infusion:0:o-MotorState", "drop:t_clear_alarm:0:o-BuzzerState")


def main() -> None:
    mutants = tuple(
        mutant
        for mutant in generate_mutants(build_fig2_statechart())
        if mutant.mutant_id in WANTED_MUTANTS
    )
    spec = FaultMatrixSpec(
        name="example-kill-matrix",
        fault_plans=FAULTS,
        mutants=mutants,
        fault_schemes=(1, 3),
        mutant_schemes=(1, 3),
        cases=("bolus-request", "alarm-clear"),
        samples=2,
    )
    print(f"kill matrix: {spec.size} runs ({len(FAULTS)} faults x {len(mutants)} mutants "
          f"x schemes 1/3 x {len(spec.cases)} scenarios)\n")
    matrix = run_kill_matrix(spec)
    print(matrix.render())


if __name__ == "__main__":
    main()
