"""Named test scenarios of the GPCA case study, as scenario-DSL programs.

Each scenario is a declarative :class:`repro.scenarios.dsl.ScenarioProgram` for
one requirement; the GPCA pack (:mod:`repro.systems.gpca`) registers them as
its ``case_builders``, and :meth:`repro.systems.SystemPack.schedule` compiles
one into the R-test case (stimulus schedule) a run injects.  Their compiled
schedules are byte-identical to the hand-written schedules they replaced
(pinned by ``tests/scenarios/test_dsl.py``).

Scenarios that need the pump to be in a particular state first (e.g. the
empty-reservoir requirements only make sense while an infusion is running)
declare *setup* steps in their program; setup steps use monitored variables
different from the requirement's measured stimulus, so they never influence
the R-testing verdict — they only steer the system into the right state.
*Teardown* steps (clear the alarm, refill the reservoir) likewise recover
the system so the next sample again starts from Idle.

:func:`gpca_scenario_space` bounds the universe of *generated* GPCA
scenarios for the coverage-guided explorer (``repro explore``).
"""

from __future__ import annotations

from ..core.requirements import TimingRequirement
from ..platform.kernel.time import ms, seconds
from ..scenarios.dsl import (
    ROLE_SETUP,
    ROLE_TEARDOWN,
    CycleSpacing,
    ScenarioProgram,
    StimulusPattern,
    StimulusStep,
)
from ..scenarios.generator import ScenarioSpace
from .requirements import (
    gpca_requirements,
    req1_bolus_start,
    req2_empty_reservoir_alarm,
    req3_empty_reservoir_stop,
    req4_alarm_clear,
)

#: Spacing used between bolus requests so each one is accepted from Idle
#: (bolus duration 4000 ms plus margin).
BOLUS_SPACING_US = ms(4600)

#: Cycle length of the multi-step scenarios (setup + measured + recovery).
SCENARIO_CYCLE_US = seconds(8)


# ----------------------------------------------------------------------
# The four evaluation scenarios as DSL programs
# ----------------------------------------------------------------------
def bolus_request_program(samples: int = 10) -> ScenarioProgram:
    """The Table I scenario as a program: repeated bolus requests vs REQ1.

    A *pure stimulus* program (no setup/teardown): one request per cycle,
    150 ms after start and then every 4.6–5.5 s (jittered), so each request
    arrives while the pump is Idle again.  Runs against the extended GPCA
    model are moved past its 500 ms power-on self test by
    :meth:`repro.systems.SystemPack.schedule`.
    """
    return ScenarioProgram(
        name="bolus-request",
        requirement=req1_bolus_start(),
        spacing=CycleSpacing(BOLUS_SPACING_US, BOLUS_SPACING_US + ms(900)),
        samples=samples,
        start_offset_us=ms(150),
    )


def _empty_reservoir_program(requirement: TimingRequirement, samples: int) -> ScenarioProgram:
    """Shared program of the empty-reservoir requirements (REQ2 / REQ3).

    Each cycle: request a bolus (setup), force the reservoir empty one second
    into the infusion (measured), then clear the alarm and refill (teardown)
    so the next cycle again starts from Idle.
    """
    return ScenarioProgram(
        name=f"empty-reservoir-{requirement.requirement_id}",
        requirement=requirement,
        spacing=CycleSpacing(SCENARIO_CYCLE_US),
        samples=samples,
        start_offset_us=ms(150),
        setup=(StimulusStep("m-BolusReq", 0, ROLE_SETUP),),
        stimulus=StimulusPattern(offset_us=seconds(1)),
        teardown=(
            StimulusStep("m-ClearAlarm", seconds(3), ROLE_TEARDOWN),
            StimulusStep("m-ReservoirRefill", seconds(4), ROLE_TEARDOWN),
        ),
        description="reservoir empties mid-infusion; alarm and motor stop are timed",
    )


def empty_reservoir_alarm_program(samples: int = 5) -> ScenarioProgram:
    """REQ2 program: buzzer annunciation latency when the reservoir empties."""
    return _empty_reservoir_program(req2_empty_reservoir_alarm(), samples)


def empty_reservoir_stop_program(samples: int = 5) -> ScenarioProgram:
    """REQ3 program: motor stop latency when the reservoir empties."""
    return _empty_reservoir_program(req3_empty_reservoir_stop(), samples)


def alarm_clear_program(samples: int = 5) -> ScenarioProgram:
    """REQ4 program: buzzer silencing latency on caregiver acknowledgement.

    Setup per cycle: bolus request, then the reservoir empties (the alarm
    starts); the measured stimulus is the clear-alarm press itself.
    """
    return ScenarioProgram(
        name="alarm-clear",
        requirement=req4_alarm_clear(),
        spacing=CycleSpacing(SCENARIO_CYCLE_US),
        samples=samples,
        start_offset_us=ms(150),
        setup=(
            StimulusStep("m-BolusReq", 0, ROLE_SETUP),
            StimulusStep("m-EmptyReservoir", seconds(1), ROLE_SETUP),
        ),
        stimulus=StimulusPattern(offset_us=seconds(3)),
        teardown=(StimulusStep("m-ReservoirRefill", seconds(4), ROLE_TEARDOWN),),
        description="caregiver clears the empty-reservoir alarm; silencing is timed",
    )


# ----------------------------------------------------------------------
# The generated-scenario universe
# ----------------------------------------------------------------------
def gpca_scenario_space() -> ScenarioSpace:
    """The bounded universe of generated GPCA scenarios.

    Setup steps may press any non-measured button or force platform
    conditions — including occlusion and door-open, which only the extended
    model reacts to (against Fig. 2 they are harmless no-ops, against the
    extended chart they unlock its alarm/pause transitions).  Teardown steps
    are restricted to the recovery actions (clear the alarm, refill the
    reservoir).  Spacing and sample ranges are chosen so a compiled program
    executes in a few simulated seconds.
    """
    return ScenarioSpace(
        requirements=tuple(gpca_requirements()),
        setup_variables=(
            "m-BolusReq",
            "m-EmptyReservoir",
            "m-ClearAlarm",
            "m-ReservoirRefill",
            "m-Occlusion",
            "m-DoorOpen",
            "m-DoorClose",
        ),
        teardown_variables=("m-ClearAlarm", "m-ReservoirRefill", "m-DoorClose"),
        samples=(2, 5),
        cycle_spacing_us=(ms(800), SCENARIO_CYCLE_US),
    )
