"""Hardware profile and closed-loop dynamics of the case-study platform.

The paper's test bench is a Baxter PCA syringe pump interfaced to an ARM7
micro-controller running FreeRTOS.  The pump's devices are declared as specs
in :mod:`repro.systems.gpca`; this module provides what is not a device:

* :func:`arm7_execution_model` — per-transition execution costs calibrated so
  that the measured Trans1 / Trans2 delays land near the 11 ms / 20 ms values
  the paper reports for its platform;
* :func:`attach_reservoir` — the platform's dynamics hook: a drug reservoir
  drained while the pump motor physically runs, whose empty condition drives
  the level sensor.  This gives the extended GPCA scenarios (empty-reservoir
  alarm and stop) a physically meaningful trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..codegen.execution_model import ExecutionTimeModel
from ..integration.base import PlatformBundle
from ..platform.kernel.random import uniform
from ..platform.kernel.time import ms, us
from .model import TRANS_BOLUS_REQUEST, TRANS_START_INFUSION


def arm7_execution_model() -> ExecutionTimeModel:
    """Execution-time profile approximating the paper's ARM7 target.

    The overrides give the two transitions on the REQ1 path the asymmetric
    costs the paper measures (Trans1 around 11 ms, Trans2 around 20 ms); every
    other transition uses the generic base + per-action cost.
    """
    model = ExecutionTimeModel(
        input_scan=uniform(ms(1) + us(500), us(400)),
        idle_scan=uniform(us(400), us(150)),
        transition_base=uniform(ms(8), ms(2)),
        per_action=uniform(ms(2), us(500)),
        output_write=uniform(ms(1), us(300)),
    )
    model.transition_overrides[TRANS_BOLUS_REQUEST] = uniform(ms(11), ms(2))
    model.transition_overrides[TRANS_START_INFUSION] = uniform(ms(20), ms(3))
    return model


#: Volume of a full syringe, in ml.
FULL_RESERVOIR_ML = 100.0


@dataclass
class ReservoirModel:
    """A simple drug reservoir drained by the running pump motor."""

    volume_ml: float = FULL_RESERVOIR_ML
    #: Delivery rate per motor speed unit, in ml per second.
    ml_per_second_per_speed: float = 0.05

    def drain(self, speed: float, duration_s: float) -> float:
        """Remove volume for running at ``speed`` for ``duration_s`` seconds.

        Returns the volume actually delivered (bounded by what remains).
        """
        requested = speed * self.ml_per_second_per_speed * duration_s
        delivered = min(requested, self.volume_ml)
        self.volume_ml -= delivered
        return delivered

    @property
    def empty(self) -> bool:
        return self.volume_ml <= 1e-9


def attach_reservoir(bundle: PlatformBundle) -> None:
    """Dynamics hook of the GPCA platform: the syringe reservoir.

    Attaches a full :class:`ReservoirModel` as ``bundle.environment.reservoir``.
    Each physical motor run drains it when the motor stops, and a run that
    empties it sets the reservoir sensor.  It also adds the caregiver's
    ``m-EmptyReservoir`` (syringe removed) and ``m-ReservoirRefill`` (syringe
    replaced) stimulus actions, which set volume and sensor together.
    """
    simulator = bundle.simulator
    sensor = bundle.hardware.reservoir_sensor
    reservoir = bundle.environment.reservoir = ReservoirModel()
    # ``(start_us, speed)`` of the motor run in progress, if any.
    run: Optional[Tuple[int, float]] = None

    def on_motor_change(value: float, timestamp_us: int) -> None:
        nonlocal run
        if value and run is None:
            run = (timestamp_us, float(value))
        elif not value and run is not None:
            start_us, speed = run
            run = None
            reservoir.drain(speed, (timestamp_us - start_us) / 1_000_000)
            if reservoir.empty:
                sensor.set_physical(True)

    def schedule_empty(at_us: int) -> None:
        def empty() -> None:
            reservoir.volume_ml = 0.0
            sensor.set_physical(True)

        simulator.schedule_at(at_us, empty, label="env:reservoir_empty")

    def schedule_refill(at_us: int) -> None:
        def refill() -> None:
            reservoir.volume_ml = FULL_RESERVOIR_ML
            sensor.set_physical(False)

        simulator.schedule_at(at_us, refill, label="env:reservoir_refill")

    bundle.hardware.pump_motor.add_observer(on_motor_change)
    bundle.stimulus_actions["m-EmptyReservoir"] = schedule_empty
    bundle.stimulus_actions["m-ReservoirRefill"] = schedule_refill
