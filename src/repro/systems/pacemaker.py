"""A rate-adaptive cardiac pacemaker as a registered system pack.

The second case study: a single-chamber, rate-adaptive pacemaker in the
style of the Boston Scientific PACEMAKER formal-methods challenge.  The chart
inhibits pacing on a sensed intrinsic beat (with a refractory period),
paces at the lower rate limit when no beat arrives, enters a fixed-rate test
mode while a magnet is applied, and shortens the pacing interval while the
accelerometer reports high patient activity.

Everything lowers through the existing pipeline: the chart compiles via
``repro.codegen``, the platform is assembled declaratively from device specs
(:mod:`repro.systems.platform`), and the timing requirements are judged by
the same R-/M-testing machinery as the GPCA pump.
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
    ROLE_TEARDOWN,
    CycleSpacing,
    ScenarioProgram,
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

#: Lower-rate-limit pacing interval: pace after 1000 ms without a beat.
LRL_INTERVAL_TICKS = 1000
#: Width of the delivered pacing pulse.
PACE_PULSE_TICKS = 40
#: Refractory period after a sensed intrinsic beat.
REFRACTORY_TICKS = 300
#: Shortened pacing interval while the accelerometer reports activity.
ADAPTIVE_INTERVAL_TICKS = 600

TRANS_LRL_PACE = "t_lrl_pace"
TRANS_SENSE_INHIBIT = "t_sense_inhibit"
TRANS_MAGNET_TEST = "t_magnet_test"
TRANS_RATE_UP = "t_rate_up"


def build_pacemaker_statechart() -> Statechart:
    """The rate-adaptive pacemaker statechart."""
    return (
        StatechartBuilder("pacemaker_rate_adaptive")
        .input_events(
            "i-Sense", "i-Magnet", "i-MagnetOff", "i-ActivityHigh", "i-ActivityRest"
        )
        .output_variable("o-PaceState", initial=0)
        .output_variable("o-MarkerState", initial=0)
        .output_variable("o-RateState", initial=0)
        .state("Inhibited", initial=True, description="waiting for an intrinsic beat")
        .state("Paced", description="pacing pulse being delivered")
        .state("Refractory", description="sensing blanked after an intrinsic beat")
        .state("MagnetTest", description="fixed-rate pacing while a magnet is applied")
        .state("RateAdaptive", description="shortened pacing interval under activity")
        .transition(
            TRANS_LRL_PACE,
            "Inhibited",
            "Paced",
            temporal=at(LRL_INTERVAL_TICKS),
            assign={"o-PaceState": 1},
            description="no intrinsic beat within the LRL interval: pace",
        )
        .transition(
            "t_pace_done",
            "Paced",
            "Inhibited",
            temporal=at(PACE_PULSE_TICKS),
            assign={"o-PaceState": 0},
            description="pacing pulse complete",
        )
        .transition(
            TRANS_SENSE_INHIBIT,
            "Inhibited",
            "Refractory",
            event="i-Sense",
            assign={"o-MarkerState": 1},
            description="intrinsic beat sensed: inhibit pacing, mark the beat",
        )
        .transition(
            "t_refractory_done",
            "Refractory",
            "Inhibited",
            temporal=at(REFRACTORY_TICKS),
            assign={"o-MarkerState": 0},
            description="refractory period over",
        )
        .transition(
            TRANS_MAGNET_TEST,
            "Inhibited",
            "MagnetTest",
            event="i-Magnet",
            assign={"o-PaceState": 1},
            description="magnet applied: fixed-rate test pacing",
        )
        .transition(
            "t_magnet_done",
            "MagnetTest",
            "Inhibited",
            event="i-MagnetOff",
            assign={"o-PaceState": 0},
            description="magnet removed",
        )
        .transition(
            TRANS_RATE_UP,
            "Inhibited",
            "RateAdaptive",
            event="i-ActivityHigh",
            assign={"o-RateState": 1},
            description="accelerometer reports activity: raise the rate",
        )
        .transition(
            "t_adaptive_pace",
            "RateAdaptive",
            "Paced",
            temporal=at(ADAPTIVE_INTERVAL_TICKS),
            assign={"o-PaceState": 1, "o-RateState": 0},
            description="pace at the shortened adaptive interval",
        )
        .transition(
            "t_rate_rest",
            "RateAdaptive",
            "Inhibited",
            event="i-ActivityRest",
            assign={"o-RateState": 0},
            description="activity over: back to the lower rate limit",
        )
        .transition(
            "t_sense_adaptive",
            "RateAdaptive",
            "Refractory",
            event="i-Sense",
            assign={"o-MarkerState": 1, "o-RateState": 0},
            description="intrinsic beat while rate-adaptive: inhibit and mark",
        )
        .build()
    )


def build_pacemaker_interface() -> FourVariableInterface:
    """The four-variable interface of the pacemaker implementation."""
    from ..core.four_variables import FourVariableInterface

    interface = FourVariableInterface()
    interface.monitored("m-Sense", description="intrinsic cardiac beat on the electrode")
    interface.monitored("m-Magnet", description="magnet applied over the device")
    interface.monitored("m-ActivityHigh", description="accelerometer activity level")
    interface.input("i-Sense", description="sensed beat read by the generated code")
    interface.input("i-Magnet", description="magnet application read by the generated code")
    interface.input("i-MagnetOff", description="magnet removal read by the generated code")
    interface.input("i-ActivityHigh", description="activity onset read by the generated code")
    interface.input("i-ActivityRest", description="activity end read by the generated code")
    interface.output("o-PaceState", var_type="int", initial=0, description="commanded pacing drive")
    interface.output("o-MarkerState", var_type="int", initial=0, description="commanded sense marker")
    interface.output("o-RateState", var_type="int", initial=0, description="commanded rate indicator")
    interface.controlled("c-PaceLine", var_type="int", initial=0, description="physical pacing line drive")
    interface.controlled("c-SenseMarker", var_type="int", initial=0, description="physical marker channel")
    interface.controlled("c-RateLed", var_type="int", initial=0, description="physical rate indicator")
    interface.link_input("m-Sense", "i-Sense")
    interface.link_input("m-Magnet", "i-Magnet")
    interface.link_input("m-ActivityHigh", "i-ActivityHigh")
    interface.link_output("o-PaceState", "c-PaceLine")
    interface.link_output("o-MarkerState", "c-SenseMarker")
    interface.link_output("o-RateState", "c-RateLed")
    interface.validate()
    return interface


def pacemaker_execution_model() -> ExecutionTimeModel:
    """Execution costs of a low-power implant micro-controller."""
    from ..codegen.execution_model import ExecutionTimeModel

    model = ExecutionTimeModel(
        input_scan=uniform(ms(1), us(300)),
        idle_scan=uniform(us(300), us(100)),
        transition_base=uniform(ms(4), ms(1)),
        per_action=uniform(ms(1), us(400)),
        output_write=uniform(us(800), us(250)),
    )
    model.transition_overrides[TRANS_SENSE_INHIBIT] = uniform(ms(7), ms(2))
    model.transition_overrides[TRANS_MAGNET_TEST] = uniform(ms(9), ms(2))
    return model


#: Device specs of the simulated pacemaker platform.  The sense electrode is
#: edge-triggered (a beat is an event); the magnet and accelerometer are
#: sampled level sensors whose falling edges feed the *Off/Rest i-variables,
#: mirroring the GPCA door sensor's open/close pairing.
PACEMAKER_PLATFORM = PackPlatform(
    buttons=(
        ButtonSpec("sense_electrode", "m-Sense", "i-Sense", sampling_period_us=ms(2)),
    ),
    levels=(
        LevelSpec(
            "magnet_switch",
            "m-Magnet",
            "i-Magnet",
            falling_input="i-MagnetOff",
            sampling_period_us=ms(10),
        ),
        LevelSpec(
            "activity_sensor",
            "m-ActivityHigh",
            "i-ActivityHigh",
            falling_input="i-ActivityRest",
            sampling_period_us=ms(20),
        ),
    ),
    actuators=(
        ActuatorSpec(
            "pace_driver",
            "o-PaceState",
            "c-PaceLine",
            actuation_latency=uniform(ms(1), us(300)),
        ),
        ActuatorSpec(
            "marker_led",
            "o-MarkerState",
            "c-SenseMarker",
            actuation_latency=uniform(us(500), us(100)),
        ),
        ActuatorSpec(
            "rate_led",
            "o-RateState",
            "c-RateLed",
            actuation_latency=uniform(us(500), us(100)),
        ),
    ),
    stimuli={
        "m-Sense": PressAction("sense_electrode"),
        "m-Magnet": LevelAction("magnet_switch", True),
        "m-MagnetOff": LevelAction("magnet_switch", False),
        "m-ActivityHigh": LevelAction("activity_sensor", True),
        "m-ActivityRest": LevelAction("activity_sensor", False),
    },
    interface=build_pacemaker_interface,
    execution_model=pacemaker_execution_model,
)


# ----------------------------------------------------------------------
# Timing requirements
# ----------------------------------------------------------------------
def pace1_sense_marker(deadline_ms: int = 120) -> TimingRequirement:
    """PACE1: a sensed beat shall be marked within ``deadline_ms``."""
    return TimingRequirement(
        requirement_id="PACE1",
        description=(
            "A sensed intrinsic beat shall be annotated on the marker channel "
            "within 120 ms."
        ),
        stimulus=EventSpec.becomes("m-Sense", True, "intrinsic beat sensed"),
        response=EventSpec.becomes_positive("c-SenseMarker", "marker channel annotated"),
        deadline_us=ms(deadline_ms),
        # A beat arriving during the refractory period (300 ms) is ignored by
        # the model, so measured beats must be spaced past it with margin —
        # but not so far that the LRL timer (1000 ms) paces first.
        min_stimulus_separation_us=ms(700),
        model_trigger_event="i-Sense",
        model_response_variable="o-MarkerState",
        model_response_value=1,
        model_trigger_state="Inhibited",
    )


def pace2_magnet_pace(deadline_ms: int = 200) -> TimingRequirement:
    """PACE2: magnet application shall start test pacing within ``deadline_ms``."""
    return TimingRequirement(
        requirement_id="PACE2",
        description=(
            "When a magnet is applied over the device, fixed-rate test pacing "
            "shall start within 200 ms."
        ),
        stimulus=EventSpec.becomes("m-Magnet", True, "magnet applied"),
        response=EventSpec.becomes_positive("c-PaceLine", "pacing line driven"),
        deadline_us=ms(deadline_ms),
        min_stimulus_separation_us=ms(1000),
        model_trigger_event="i-Magnet",
        model_response_variable="o-PaceState",
        model_response_value=1,
        model_trigger_state="Inhibited",
    )


def pace3_rate_adapt(deadline_ms: int = 150) -> TimingRequirement:
    """PACE3: activity onset shall raise the pacing rate within ``deadline_ms``."""
    return TimingRequirement(
        requirement_id="PACE3",
        description=(
            "When the accelerometer reports high activity, the rate-adaptive "
            "mode shall engage within 150 ms."
        ),
        stimulus=EventSpec.becomes("m-ActivityHigh", True, "activity onset"),
        response=EventSpec.becomes_positive("c-RateLed", "rate indicator driven"),
        deadline_us=ms(deadline_ms),
        min_stimulus_separation_us=ms(900),
        model_trigger_event="i-ActivityHigh",
        model_response_variable="o-RateState",
        model_response_value=1,
        model_trigger_state="Inhibited",
    )


def pacemaker_requirements() -> RequirementSet:
    """The pacemaker timing-requirement catalogue."""
    return RequirementSet([pace1_sense_marker(), pace2_magnet_pace(), pace3_rate_adapt()])


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------
def sense_inhibit_program(samples: int = 6) -> ScenarioProgram:
    """PACE1 scenario: repeated intrinsic beats, marker latency measured.

    Spacing stays inside (refractory + margin, LRL interval): every beat
    arrives with the model back in ``Inhibited`` but before the LRL timer
    would have paced.
    """
    return ScenarioProgram(
        name="sense-inhibit",
        requirement=pace1_sense_marker(),
        spacing=CycleSpacing(ms(800), ms(950)),
        samples=samples,
        start_offset_us=ms(150),
        description="intrinsic beats inhibit pacing; marker annotation is timed",
    )


def magnet_pace_program(samples: int = 5) -> ScenarioProgram:
    """PACE2 scenario: magnet applied, removed 500 ms later, per cycle."""
    return ScenarioProgram(
        name="magnet-pace",
        requirement=pace2_magnet_pace(),
        spacing=CycleSpacing(ms(1400)),
        samples=samples,
        start_offset_us=ms(150),
        teardown=(StimulusStep("m-MagnetOff", ms(500), ROLE_TEARDOWN),),
        description="magnet test mode entry; pacing-line drive is timed",
    )


def rate_adapt_program(samples: int = 5) -> ScenarioProgram:
    """PACE3 scenario: activity burst ends before the adaptive interval pacing."""
    return ScenarioProgram(
        name="rate-adapt",
        requirement=pace3_rate_adapt(),
        spacing=CycleSpacing(ms(1300)),
        samples=samples,
        start_offset_us=ms(150),
        teardown=(StimulusStep("m-ActivityRest", ms(400), ROLE_TEARDOWN),),
        description="rate-adaptive mode engagement; rate indicator is timed",
    )


def pacemaker_scenario_space() -> ScenarioSpace:
    """The bounded universe of generated pacemaker scenarios.

    Spacings reach past the 1000 ms LRL interval so generated programs also
    exercise the pacing path (``t_lrl_pace`` / ``t_pace_done`` /
    ``t_adaptive_pace``), and the teardown lag range dips under the 600 ms
    adaptive interval so ``t_rate_rest`` is reachable too.
    """
    return ScenarioSpace(
        requirements=tuple(pacemaker_requirements()),
        setup_variables=(
            "m-Sense",
            "m-Magnet",
            "m-MagnetOff",
            "m-ActivityHigh",
            "m-ActivityRest",
        ),
        teardown_variables=("m-MagnetOff", "m-ActivityRest"),
        samples=(2, 4),
        cycle_spacing_us=(ms(700), ms(2600)),
        measured_offset_us=(ms(300), ms(1200)),
        setup_lead_us=(ms(50), ms(400)),
        teardown_lag_us=(ms(200), ms(1000)),
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
        FaultPlan((QueueFault(queue="i_events", drop_probability=0.7),), name="queue-loss"),
        FaultPlan((SensorStuckFault(device="sense_electrode"),), name="sensor-stuck"),
        FaultPlan(
            (SensorGlitchFault(device="sense_electrode", drop_probability=0.9),),
            name="sensor-glitch",
        ),
    )


_MODELS = {"pacemaker": build_pacemaker_statechart}

PACEMAKER_PACK = SystemPack(
    system_id="pacemaker",
    title="Rate-adaptive cardiac pacemaker",
    description="Single-chamber rate-adaptive pacemaker with magnet test mode",
    default_model="pacemaker",
    model_builders=_MODELS,
    build_interface=build_pacemaker_interface,
    build_system=partial(build_pack_system, "pacemaker", PACEMAKER_PLATFORM, _MODELS, model="pacemaker"),
    case_builders={
        "sense-inhibit": sense_inhibit_program,
        "magnet-pace": magnet_pace_program,
        "rate-adapt": rate_adapt_program,
    },
    requirements=pacemaker_requirements,
    scenario_space=pacemaker_scenario_space,
    fault_suite=_fault_suite,
)
