#!/usr/bin/env python3
"""Bring your own model: timing-testing a user-defined statechart.

This example shows the library being used outside the GPCA case study: a small
railway level-crossing controller is modelled from scratch, verified, lowered
to CODE(M), integrated on the simulated platform with a custom four-variable
interface, and R/M-tested against its own timing requirement ("the barrier
motor shall start lowering within 150 ms of train detection").

It demonstrates every extension point a downstream user needs:

* building a statechart with the fluent builder;
* declaring a four-variable interface;
* describing a custom platform as device specs and stimulus actions, which
  ``build_pack_system`` integrates with the generated code under one of the
  implementation schemes, exactly as it builds every registered system;
* reusing the R/M testing machinery unchanged.

Run with:  python examples/custom_model_testing.py
"""

from __future__ import annotations

from functools import partial

from repro.codegen import generate_code
from repro.core import (
    EventSpec,
    MTestAnalyzer,
    RTestCase,
    Stimulus,
    TimingRequirement,
    render_layered_summary,
)
from repro.core.four_variables import FourVariableInterface
from repro.core.r_testing import execute_r_test
from repro.model import StatechartBuilder, before
from repro.model.verification import BoundedResponseChecker
from repro.platform.kernel.random import uniform
from repro.platform.kernel.time import ms
from repro.systems.platform import (
    ActuatorSpec,
    ButtonSpec,
    PackPlatform,
    PressAction,
    build_pack_system,
)


def build_crossing_chart():
    """A level-crossing controller: detect train -> lower barrier -> raise."""
    return (
        StatechartBuilder("level_crossing")
        .input_events("i-TrainDetected", "i-TrainPassed")
        .output_variable("o-BarrierMotor", initial=0)
        .output_variable("o-WarningLights", initial=0)
        .state("Open", initial=True)
        .state("Closing")
        .state("Closed")
        .transition(
            "t_detect", "Open", "Closing", event="i-TrainDetected",
            assign={"o-WarningLights": 1},
        )
        .transition(
            "t_lower", "Closing", "Closed", temporal=before(150),
            assign={"o-BarrierMotor": 1},
        )
        .transition(
            "t_raise", "Closed", "Open", event="i-TrainPassed",
            assign={"o-BarrierMotor": 0, "o-WarningLights": 0},
        )
        .build()
    )


def barrier_requirement() -> TimingRequirement:
    return TimingRequirement(
        requirement_id="XING-1",
        description="The barrier shall start lowering within 150 ms of train detection.",
        stimulus=EventSpec.becomes("m-TrainDetected", True),
        response=EventSpec.becomes_positive("c-BarrierMotor"),
        deadline_us=ms(150),
        min_stimulus_separation_us=ms(2000),
        model_trigger_event="i-TrainDetected",
        model_response_variable="o-BarrierMotor",
        model_response_value=1,
        model_trigger_state="Open",
    )


def build_crossing_interface() -> FourVariableInterface:
    interface = FourVariableInterface()
    interface.monitored("m-TrainDetected")
    interface.monitored("m-TrainPassed")
    interface.input("i-TrainDetected")
    interface.input("i-TrainPassed")
    interface.output("o-BarrierMotor", var_type="int")
    interface.output("o-WarningLights", var_type="int")
    interface.controlled("c-BarrierMotor", var_type="int")
    interface.controlled("c-WarningLights", var_type="int")
    interface.link_input("m-TrainDetected", "i-TrainDetected")
    interface.link_input("m-TrainPassed", "i-TrainPassed")
    interface.link_output("o-BarrierMotor", "c-BarrierMotor")
    interface.link_output("o-WarningLights", "c-WarningLights")
    return interface


#: A minimal custom platform: two track sensors, a barrier motor, a lamp.
#: Each train arrival / passage presses its track sensor.
CROSSING_PLATFORM = PackPlatform(
    buttons=(
        ButtonSpec(
            "track_sensor", "m-TrainDetected", "i-TrainDetected",
            sampling_period_us=ms(5), conversion_latency=uniform(300, 100),
        ),
        ButtonSpec(
            "passed_sensor", "m-TrainPassed", "i-TrainPassed",
            sampling_period_us=ms(5), conversion_latency=uniform(300, 100),
        ),
    ),
    levels=(),
    actuators=(
        ActuatorSpec(
            "barrier", "o-BarrierMotor", "c-BarrierMotor",
            actuation_latency=uniform(ms(5), ms(2)),
        ),
        ActuatorSpec(
            "lights", "o-WarningLights", "c-WarningLights",
            actuation_latency=uniform(ms(1), 300),
        ),
    ),
    stimuli={
        "m-TrainDetected": PressAction("track_sensor"),
        "m-TrainPassed": PressAction("passed_sensor"),
    },
    interface=build_crossing_interface,
)


def main() -> None:
    chart = build_crossing_chart()
    requirement = barrier_requirement()

    verification = BoundedResponseChecker(chart).check(requirement.to_model_requirement())
    print("model verification:", verification.summary())

    artifacts = generate_code(chart)
    print("code generation:", artifacts.summary())

    # Scheme 1, the single-threaded loop, polling every 20 ms.
    factory = partial(
        build_pack_system,
        "crossing",
        CROSSING_PLATFORM,
        {"crossing": build_crossing_chart},
        1,
        model="crossing",
        seed=3,
        period_us=ms(20),
        artifacts=artifacts,
    )

    # Each sample is one train: detection (measured) followed by the train
    # passing (setup for the next sample, re-opening the crossing).
    stimuli = []
    for index in range(6):
        base = ms(100) + index * ms(3000)
        stimuli.append(Stimulus(base, "m-TrainDetected"))
        stimuli.append(Stimulus(base + ms(1500), "m-TrainPassed"))
    test_case = RTestCase(
        name="trains", requirement=requirement, stimuli=tuple(stimuli),
        description="six trains, barrier-lowering latency measured per train",
    )
    r_report = execute_r_test(factory, test_case)
    m_report = None
    if not r_report.passed:
        analyzer = MTestAnalyzer(build_crossing_interface(), requirement)
        m_report = analyzer.analyze_violations(r_report)
    print(render_layered_summary(r_report, m_report))


if __name__ == "__main__":
    main()
