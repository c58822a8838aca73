"""An automotive cruise-control / AEB controller as a registered system pack.

The third case study: a cruise controller with autonomous emergency braking.
The chart engages throttle hold on the driver's request, drops it on cancel
or brake-pedal override (with a hold-off before re-engagement is possible),
and — from either manual or engaged driving — commands emergency braking
plus a warning lamp when the radar reports an obstacle.

Like the pacemaker pack, everything lowers through the existing pipeline:
codegen, the declarative platform assembly and the three integration schemes.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Tuple

from ..core.requirements import EventSpec, RequirementSet, TimingRequirement
from ..model.builder import StatechartBuilder
from ..model.statechart import Statechart
from ..model.temporal import at
from ..platform.kernel.random import uniform
from ..platform.kernel.time import ms, us
from ..scenarios.dsl import (
    ROLE_SETUP,
    ROLE_TEARDOWN,
    CycleSpacing,
    ScenarioProgram,
    StimulusPattern,
    StimulusStep,
)
from ..scenarios.generator import ScenarioSpace
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

if TYPE_CHECKING:
    from ..codegen.execution_model import ExecutionTimeModel
    from ..core.four_variables import FourVariableInterface

#: Hold-off after a brake-pedal override before re-engagement is possible.
OVERRIDE_HOLD_TICKS = 500

TRANS_ENGAGE = "t_engage"
TRANS_DRIVER_OVERRIDE = "t_driver_override"
TRANS_AEB_MANUAL = "t_aeb_manual"
TRANS_AEB_ENGAGED = "t_aeb_engaged"


def build_cruise_statechart() -> Statechart:
    """The cruise-control / AEB statechart."""
    return (
        StatechartBuilder("cruise_aeb")
        .input_events(
            "i-Engage", "i-Cancel", "i-BrakePedal", "i-Obstacle", "i-ObstacleClear"
        )
        .output_variable("o-ThrottleState", initial=0)
        .output_variable("o-BrakeState", initial=0)
        .output_variable("o-WarnState", initial=0)
        .state("Manual", initial=True, description="driver controls the throttle")
        .state("Engaged", description="cruise control holds the throttle")
        .state("Override", description="brake-pedal override, hold-off running")
        .state("Braking", description="autonomous emergency braking active")
        .transition(
            TRANS_ENGAGE,
            "Manual",
            "Engaged",
            event="i-Engage",
            assign={"o-ThrottleState": 1},
            description="driver engages cruise control",
        )
        .transition(
            "t_cancel",
            "Engaged",
            "Manual",
            event="i-Cancel",
            assign={"o-ThrottleState": 0},
            description="driver cancels cruise control",
        )
        .transition(
            TRANS_DRIVER_OVERRIDE,
            "Engaged",
            "Override",
            event="i-BrakePedal",
            assign={"o-ThrottleState": 0},
            description="brake pedal overrides the throttle hold",
        )
        .transition(
            "t_resume_ready",
            "Override",
            "Manual",
            temporal=at(OVERRIDE_HOLD_TICKS),
            description="override hold-off elapsed; re-engagement possible",
        )
        .transition(
            TRANS_AEB_ENGAGED,
            "Engaged",
            "Braking",
            event="i-Obstacle",
            assign={"o-ThrottleState": 0, "o-BrakeState": 1, "o-WarnState": 1},
            description="obstacle while engaged: brake, warn, drop throttle",
        )
        .transition(
            TRANS_AEB_MANUAL,
            "Manual",
            "Braking",
            event="i-Obstacle",
            assign={"o-BrakeState": 1, "o-WarnState": 1},
            description="obstacle while manual: brake and warn",
        )
        .transition(
            "t_aeb_clear",
            "Braking",
            "Manual",
            event="i-ObstacleClear",
            assign={"o-BrakeState": 0, "o-WarnState": 0},
            description="obstacle cleared: release the brake intervention",
        )
        .build()
    )


def build_cruise_interface() -> FourVariableInterface:
    """The four-variable interface of the cruise-control implementation."""
    from ..core.four_variables import FourVariableInterface

    interface = FourVariableInterface()
    interface.monitored("m-Engage", description="engage button electrical state")
    interface.monitored("m-Cancel", description="cancel button electrical state")
    interface.monitored("m-BrakePedal", description="brake pedal switch state")
    interface.monitored("m-Obstacle", description="radar obstacle condition")
    interface.input("i-Engage", description="engage request read by the generated code")
    interface.input("i-Cancel", description="cancel request read by the generated code")
    interface.input("i-BrakePedal", description="brake-pedal press read by the generated code")
    interface.input("i-Obstacle", description="obstacle onset read by the generated code")
    interface.input("i-ObstacleClear", description="obstacle clearance read by the generated code")
    interface.output("o-ThrottleState", var_type="int", initial=0, description="commanded throttle hold")
    interface.output("o-BrakeState", var_type="int", initial=0, description="commanded brake intervention")
    interface.output("o-WarnState", var_type="int", initial=0, description="commanded warning lamp")
    interface.controlled("c-Throttle", var_type="int", initial=0, description="physical throttle actuator")
    interface.controlled("c-BrakeActuator", var_type="int", initial=0, description="physical brake actuator")
    interface.controlled("c-WarnLamp", var_type="int", initial=0, description="physical warning lamp")
    interface.link_input("m-Engage", "i-Engage")
    interface.link_input("m-Cancel", "i-Cancel")
    interface.link_input("m-BrakePedal", "i-BrakePedal")
    interface.link_input("m-Obstacle", "i-Obstacle")
    interface.link_output("o-ThrottleState", "c-Throttle")
    interface.link_output("o-BrakeState", "c-BrakeActuator")
    interface.link_output("o-WarnState", "c-WarnLamp")
    interface.validate()
    return interface


def cruise_execution_model() -> ExecutionTimeModel:
    """Execution costs of an automotive body-controller class MCU."""
    from ..codegen.execution_model import ExecutionTimeModel

    model = ExecutionTimeModel(
        input_scan=uniform(ms(1), us(300)),
        idle_scan=uniform(us(300), us(100)),
        transition_base=uniform(ms(5), ms(1)),
        per_action=uniform(ms(1), us(400)),
        output_write=uniform(us(900), us(250)),
    )
    model.transition_overrides[TRANS_ENGAGE] = uniform(ms(6), ms(2))
    model.transition_overrides[TRANS_AEB_MANUAL] = uniform(ms(8), ms(2))
    model.transition_overrides[TRANS_AEB_ENGAGED] = uniform(ms(8), ms(2))
    return model


CRUISE_PLATFORM = PackPlatform(
    buttons=(
        ButtonSpec("engage_button", "m-Engage", "i-Engage", sampling_period_us=ms(2)),
        ButtonSpec("cancel_button", "m-Cancel", "i-Cancel", sampling_period_us=ms(5)),
        ButtonSpec("brake_pedal", "m-BrakePedal", "i-BrakePedal", sampling_period_us=ms(2)),
    ),
    levels=(
        LevelSpec(
            "radar",
            "m-Obstacle",
            "i-Obstacle",
            falling_input="i-ObstacleClear",
            sampling_period_us=ms(10),
        ),
    ),
    actuators=(
        ActuatorSpec(
            "throttle_actuator",
            "o-ThrottleState",
            "c-Throttle",
            actuation_latency=uniform(ms(2), us(500)),
        ),
        ActuatorSpec(
            "brake_actuator",
            "o-BrakeState",
            "c-BrakeActuator",
            actuation_latency=uniform(ms(3), ms(1)),
        ),
        ActuatorSpec(
            "warning_buzzer",
            "o-WarnState",
            "c-WarnLamp",
            actuation_latency=uniform(us(800), us(200)),
        ),
    ),
    stimuli={
        "m-Engage": PressAction("engage_button"),
        "m-Cancel": PressAction("cancel_button"),
        "m-BrakePedal": PressAction("brake_pedal"),
        "m-Obstacle": LevelAction("radar", True),
        "m-ObstacleClear": LevelAction("radar", False),
    },
    interface=build_cruise_interface,
    execution_model=cruise_execution_model,
)


# ----------------------------------------------------------------------
# Timing requirements
# ----------------------------------------------------------------------
def cc1_engage(deadline_ms: int = 120) -> TimingRequirement:
    """CC1: engagement shall hold the throttle within ``deadline_ms``."""
    return TimingRequirement(
        requirement_id="CC1",
        description=(
            "When the driver engages cruise control, the throttle hold shall be "
            "active within 120 ms."
        ),
        stimulus=EventSpec.becomes("m-Engage", True, "engage button pressed"),
        response=EventSpec.becomes_positive("c-Throttle", "throttle hold physically active"),
        deadline_us=ms(deadline_ms),
        min_stimulus_separation_us=ms(1200),
        model_trigger_event="i-Engage",
        model_response_variable="o-ThrottleState",
        model_response_value=1,
        model_trigger_state="Manual",
    )


def cc2_override(deadline_ms: int = 120) -> TimingRequirement:
    """CC2: a brake-pedal press shall release the throttle within ``deadline_ms``."""
    return TimingRequirement(
        requirement_id="CC2",
        description=(
            "When the driver presses the brake pedal while cruise control is "
            "engaged, the throttle hold shall be released within 120 ms."
        ),
        stimulus=EventSpec.becomes("m-BrakePedal", True, "brake pedal pressed"),
        response=EventSpec.becomes("c-Throttle", 0, "throttle hold physically released"),
        deadline_us=ms(deadline_ms),
        min_stimulus_separation_us=ms(1500),
        model_trigger_event="i-BrakePedal",
        model_response_variable="o-ThrottleState",
        model_response_value=0,
        model_trigger_state="Engaged",
    )


def cc3_aeb_brake(deadline_ms: int = 100) -> TimingRequirement:
    """CC3: an obstacle shall trigger braking within ``deadline_ms``."""
    return TimingRequirement(
        requirement_id="CC3",
        description=(
            "When the radar reports an obstacle, the emergency brake "
            "intervention shall be active within 100 ms."
        ),
        stimulus=EventSpec.becomes("m-Obstacle", True, "obstacle detected"),
        response=EventSpec.becomes_positive("c-BrakeActuator", "brake physically applied"),
        deadline_us=ms(deadline_ms),
        min_stimulus_separation_us=ms(1200),
        model_trigger_event="i-Obstacle",
        model_response_variable="o-BrakeState",
        model_response_value=1,
        model_trigger_state="Manual",
    )


def cruise_requirements() -> RequirementSet:
    """The cruise-control timing-requirement catalogue."""
    return RequirementSet([cc1_engage(), cc2_override(), cc3_aeb_brake()])


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------
def engage_program(samples: int = 6) -> ScenarioProgram:
    """CC1 scenario: engage, cancel 600 ms later, per cycle."""
    return ScenarioProgram(
        name="engage",
        requirement=cc1_engage(),
        spacing=CycleSpacing(ms(1500)),
        samples=samples,
        start_offset_us=ms(150),
        teardown=(StimulusStep("m-Cancel", ms(600), ROLE_TEARDOWN),),
        description="cruise engagement; throttle-hold latency is timed",
    )


def driver_override_program(samples: int = 5) -> ScenarioProgram:
    """CC2 scenario: engage (setup), brake 500 ms later (measured).

    The override hold-off (``t_resume_ready``) returns the chart to Manual
    on its own, so no teardown step is needed before the next engagement.
    """
    return ScenarioProgram(
        name="driver-override",
        requirement=cc2_override(),
        spacing=CycleSpacing(ms(2000)),
        samples=samples,
        start_offset_us=ms(150),
        setup=(StimulusStep("m-Engage", 0, ROLE_SETUP),),
        stimulus=StimulusPattern(offset_us=ms(500)),
        description="brake-pedal override; throttle release latency is timed",
    )


def aeb_stop_program(samples: int = 5) -> ScenarioProgram:
    """CC3 scenario: obstacle appears, clears 600 ms later, per cycle."""
    return ScenarioProgram(
        name="aeb-stop",
        requirement=cc3_aeb_brake(),
        spacing=CycleSpacing(ms(1500)),
        samples=samples,
        start_offset_us=ms(150),
        teardown=(StimulusStep("m-ObstacleClear", ms(600), ROLE_TEARDOWN),),
        description="emergency braking on obstacle; brake latency is timed",
    )


def cruise_scenario_space() -> ScenarioSpace:
    """The bounded universe of generated cruise-control scenarios.

    Setup steps may engage cruise control before a measured obstacle, which
    is what unlocks the engaged-mode AEB transition (``t_aeb_engaged``) for
    the coverage-guided explorer.
    """
    return ScenarioSpace(
        requirements=tuple(cruise_requirements()),
        setup_variables=(
            "m-Engage",
            "m-Cancel",
            "m-BrakePedal",
            "m-Obstacle",
            "m-ObstacleClear",
        ),
        teardown_variables=("m-Cancel", "m-ObstacleClear"),
        samples=(2, 4),
        cycle_spacing_us=(ms(900), ms(2800)),
        measured_offset_us=(ms(300), ms(1200)),
        setup_lead_us=(ms(50), ms(400)),
        teardown_lag_us=(ms(300), ms(1500)),
    )


def _fault_suite() -> Tuple[Any, ...]:
    from ..faults.models import (
        ClockDriftFault,
        ExecutionInflationFault,
        FaultPlan,
        QueueFault,
        SensorGlitchFault,
        SensorStuckFault,
    )
    from ..platform.kernel.random import JitterModel

    return (
        FaultPlan((ClockDriftFault(drift=1.5),), name="clock-drift"),
        FaultPlan(
            (
                ExecutionInflationFault(
                    factor=3.0,
                    overrun=JitterModel(ms(25), ms(6), ms(6)),
                    overrun_probability=0.25,
                ),
            ),
            name="exec-inflation",
        ),
        FaultPlan(
            (QueueFault(queue="o_events", delay_us=ms(300), delay_probability=0.8),),
            name="queue-delay",
        ),
        FaultPlan((SensorStuckFault(device="engage_button"),), name="sensor-stuck"),
        FaultPlan(
            (SensorGlitchFault(device="brake_pedal", drop_probability=0.9),),
            name="sensor-glitch",
        ),
    )


_MODELS = {"cruise": build_cruise_statechart}

CRUISE_PACK = SystemPack(
    system_id="cruise",
    title="Cruise control with autonomous emergency braking",
    description="Automotive cruise controller with brake override and AEB",
    default_model="cruise",
    model_builders=_MODELS,
    build_interface=build_cruise_interface,
    build_system=partial(build_pack_system, "cruise", CRUISE_PLATFORM, _MODELS, model="cruise"),
    case_builders={
        "engage": engage_program,
        "driver-override": driver_override_program,
        "aeb-stop": aeb_stop_program,
    },
    requirements=cruise_requirements,
    scenario_space=cruise_scenario_space,
    fault_suite=_fault_suite,
)
