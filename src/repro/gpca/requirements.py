"""GPCA safety requirements with explicit timing bounds.

REQ1 is quoted verbatim from the paper ("A bolus dose shall be started within
100 ms when requested by the patient").  The other requirements are timing-
annotated versions of further GPCA safety requirements (stop on empty
reservoir, annunciate alarms, silence alarms on caregiver acknowledgement);
their numeric deadlines are our choices and are documented as such in
EXPERIMENTS.md — they exist so that the framework is exercised on more than a
single requirement, as the GPCA reference project intends.
"""

from __future__ import annotations

from ..core.requirements import EventSpec, RequirementSet, TimingRequirement
from ..platform.kernel.time import ms


def req1_bolus_start(deadline_ms: int = 100) -> TimingRequirement:
    """REQ1: a bolus dose shall be started within ``deadline_ms`` of the request."""
    return TimingRequirement(
        requirement_id="REQ1",
        description=(
            "A bolus dose shall be started within 100 ms when requested by the patient."
        ),
        stimulus=EventSpec.becomes("m-BolusReq", True, "bolus-request button pressed"),
        response=EventSpec.becomes_positive("c-PumpMotor", "pump motor physically starts"),
        deadline_us=ms(deadline_ms),
        # Requests issued while a bolus is still running are ignored by the
        # model (it is in Infusion), so measured samples must be spaced past
        # the 4000 ms bolus duration.
        min_stimulus_separation_us=ms(4200),
        model_trigger_event="i-BolusReq",
        model_response_variable="o-MotorState",
        model_response_value=1,
        model_trigger_state="Idle",
    )


def req2_empty_reservoir_alarm(deadline_ms: int = 250) -> TimingRequirement:
    """REQ2: the audible alarm shall sound within ``deadline_ms`` of the reservoir emptying."""
    return TimingRequirement(
        requirement_id="REQ2",
        description=(
            "When the reservoir becomes empty during an infusion, the audible alarm "
            "shall be annunciated within 250 ms."
        ),
        stimulus=EventSpec.becomes("m-EmptyReservoir", True, "reservoir empty"),
        response=EventSpec.becomes_positive("c-Buzzer", "buzzer physically on"),
        deadline_us=ms(deadline_ms),
        model_trigger_event="i-EmptyAlarm",
        model_response_variable="o-BuzzerState",
        model_response_value=1,
        model_trigger_state="Infusion",
    )


def req3_empty_reservoir_stop(deadline_ms: int = 250) -> TimingRequirement:
    """REQ3: the pump motor shall stop within ``deadline_ms`` of the reservoir emptying."""
    return TimingRequirement(
        requirement_id="REQ3",
        description=(
            "When the reservoir becomes empty during an infusion, drug delivery shall "
            "be stopped within 250 ms."
        ),
        stimulus=EventSpec.becomes("m-EmptyReservoir", True, "reservoir empty"),
        response=EventSpec.becomes("c-PumpMotor", 0, "pump motor physically stopped"),
        deadline_us=ms(deadline_ms),
        model_trigger_event="i-EmptyAlarm",
        model_response_variable="o-MotorState",
        model_response_value=0,
        model_trigger_state="Infusion",
    )


def req4_alarm_clear(deadline_ms: int = 300) -> TimingRequirement:
    """REQ4: the audible alarm shall be silenced within ``deadline_ms`` of acknowledgement."""
    return TimingRequirement(
        requirement_id="REQ4",
        description=(
            "When the caregiver acknowledges an active alarm, the audible alarm shall "
            "be silenced within 300 ms."
        ),
        stimulus=EventSpec.becomes("m-ClearAlarm", True, "clear-alarm button pressed"),
        response=EventSpec.becomes("c-Buzzer", 0, "buzzer physically off"),
        deadline_us=ms(deadline_ms),
        model_trigger_event="i-ClearAlarm",
        model_response_variable="o-BuzzerState",
        model_response_value=0,
        model_trigger_state="EmptyAlarm",
    )


def gpca_requirements() -> RequirementSet:
    """The GPCA timing-requirement catalogue used by tests, examples and benches."""
    return RequirementSet(
        [
            req1_bolus_start(),
            req2_empty_reservoir_alarm(),
            req3_empty_reservoir_stop(),
            req4_alarm_clear(),
        ]
    )
