"""The GPCA infusion pump as the default registered system pack.

The pump's charts, interface, requirements, scenarios and reservoir dynamics
live in :mod:`repro.gpca`; this module states its simulated platform as
device specs and registers it.  Registering it first makes ``"gpca"`` the
default system, so every spec, store coordinate and snapshot that predates
the registry keeps its meaning — and its bytes — unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Tuple

from ..gpca.hardware import arm7_execution_model, attach_reservoir
from ..gpca.interface import build_pump_interface
from ..gpca.model import build_extended_statechart, build_fig2_statechart
from ..gpca.requirements import gpca_requirements
from ..gpca.scenarios import (
    alarm_clear_program,
    bolus_request_program,
    empty_reservoir_alarm_program,
    empty_reservoir_stop_program,
    gpca_scenario_space,
)
from ..platform.kernel.random import uniform
from ..platform.kernel.time import ms, us
from .base import SystemPack
from .platform import (
    ActuatorSpec,
    ButtonSpec,
    LevelAction,
    LevelSpec,
    PackPlatform,
    PressAction,
    build_pack_system,
)

#: Stimulus-schedule shift for runs against the extended GPCA model: its
#: 500 ms power-on self test ignores early stimuli, so schedules move past it.
EXTENDED_MODEL_SHIFT_US = ms(650)

#: The simulated pump: the paper's Baxter PCA syringe pump on an ARM7.
#: Sampling periods of a few milliseconds and sub-millisecond conversion
#: latencies leave the software polling periods of the implementation schemes
#: as the dominant Input-Delay contributors, as in the paper.  The reservoir
#: sensor's trace name differs from its attribute and random stream.
GPCA_PLATFORM = PackPlatform(
    buttons=(
        ButtonSpec("bolus_button", "m-BolusReq", "i-BolusReq", sampling_period_us=ms(2)),
        ButtonSpec(
            "clear_alarm_button", "m-ClearAlarm", "i-ClearAlarm", sampling_period_us=ms(5)
        ),
    ),
    levels=(
        LevelSpec(
            "reservoir_sensor",
            "m-EmptyReservoir",
            "i-EmptyAlarm",
            device_name="reservoir_level_sensor",
        ),
        LevelSpec("occlusion_sensor", "m-Occlusion", "i-Occlusion"),
        LevelSpec(
            "door_sensor",
            "m-DoorOpen",
            "i-DoorOpen",
            falling_input="i-DoorClose",
            sampling_period_us=ms(20),
        ),
    ),
    actuators=(
        ActuatorSpec(
            "pump_motor", "o-MotorState", "c-PumpMotor", actuation_latency=uniform(ms(3), ms(1))
        ),
        ActuatorSpec(
            "buzzer", "o-BuzzerState", "c-Buzzer", actuation_latency=uniform(us(800), us(200))
        ),
        ActuatorSpec(
            "alarm_led",
            "o-AlarmLedState",
            "c-AlarmLed",
            actuation_latency=uniform(us(500), us(100)),
        ),
    ),
    # m-EmptyReservoir and m-ReservoirRefill come from the reservoir dynamics;
    # m-DoorClose is the recovery of a door-open pause.
    stimuli={
        "m-BolusReq": PressAction("bolus_button"),
        "m-ClearAlarm": PressAction("clear_alarm_button"),
        "m-Occlusion": LevelAction("occlusion_sensor", True),
        "m-DoorOpen": LevelAction("door_sensor", True),
        "m-DoorClose": LevelAction("door_sensor", False),
    },
    interface=build_pump_interface,
    execution_model=arm7_execution_model,
    dynamics=attach_reservoir,
)

_MODELS = {
    "fig2": build_fig2_statechart,
    "extended": build_extended_statechart,
}


def _fault_suite() -> Tuple[Any, ...]:
    from ..faults.models import default_fault_suite

    return default_fault_suite()


GPCA_PACK = SystemPack(
    system_id="gpca",
    title="GPCA infusion pump",
    description="The paper's case study: a patient-controlled analgesia pump",
    default_model="fig2",
    model_builders=_MODELS,
    model_shifts_us={"extended": EXTENDED_MODEL_SHIFT_US},
    build_interface=build_pump_interface,
    build_system=partial(build_pack_system, "gpca", GPCA_PLATFORM, _MODELS, model="fig2"),
    case_builders={
        "bolus-request": bolus_request_program,
        "empty-reservoir-alarm": empty_reservoir_alarm_program,
        "empty-reservoir-stop": empty_reservoir_stop_program,
        "alarm-clear": alarm_clear_program,
    },
    requirements=gpca_requirements,
    scenario_space=gpca_scenario_space,
    fault_suite=_fault_suite,
)
