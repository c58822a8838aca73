"""Statechart models of the GPCA infusion pump software.

Two charts are provided:

* :func:`build_fig2_statechart` — the exact fragment shown in Fig. 2 of the
  paper (Idle / BolusRequested / Infusion / EmptyAlarm), used by the Table I
  and Fig. 3 reproductions so the measured transition path matches the paper's
  Trans1 / Trans2 narrative.
* :func:`build_extended_statechart` — a superset closer to the full GPCA
  reference model (power-on test, occlusion alarm, door-open pause), used by
  the additional examples and tests to exercise the framework beyond the
  paper's single scenario.

The bolus duration (4000 ms) and the 100 ms bolus-start bound come straight
from Fig. 2 (``At(4000, E_CLK)`` and ``Before(100, E_CLK)``).
"""

from __future__ import annotations

from ..model.builder import StatechartBuilder
from ..model.statechart import Statechart
from ..model.temporal import at, before

#: Bound of the Before() operator on the bolus-start transition (model ticks).
BOLUS_START_BOUND_TICKS = 100
#: Bolus duration of the At() operator on the bolus-completion transition.
BOLUS_DURATION_TICKS = 4000
#: Duration of the power-on self test in the extended chart.
POWER_ON_TEST_TICKS = 500

# Canonical transition names (referenced by the hardware execution profile
# and several tests).
TRANS_BOLUS_REQUEST = "t_bolus_req"
TRANS_START_INFUSION = "t_start_infusion"
TRANS_BOLUS_DONE = "t_bolus_done"
TRANS_EMPTY_ALARM = "t_empty_alarm"
TRANS_CLEAR_ALARM = "t_clear_alarm"


def build_fig2_statechart() -> Statechart:
    """The infusion-pump statechart of Fig. 2 in the paper."""
    return (
        StatechartBuilder("gpca_fig2")
        .input_events("i-BolusReq", "i-EmptyAlarm", "i-ClearAlarm")
        .output_variable("o-MotorState", initial=0)
        .output_variable("o-BuzzerState", initial=0)
        .state("Idle", initial=True, description="waiting for a patient request")
        .state("BolusRequested", description="request accepted, bolus about to start")
        .state("Infusion", description="pump motor running, bolus being delivered")
        .state("EmptyAlarm", description="reservoir empty, infusion stopped, alarm on")
        .transition(
            TRANS_BOLUS_REQUEST,
            "Idle",
            "BolusRequested",
            event="i-BolusReq",
            description="patient pressed the bolus-request button (function1)",
        )
        .transition(
            TRANS_START_INFUSION,
            "BolusRequested",
            "Infusion",
            temporal=before(BOLUS_START_BOUND_TICKS),
            assign={"o-MotorState": 1},
            description="start the bolus within 100 ms (function2)",
        )
        .transition(
            TRANS_BOLUS_DONE,
            "Infusion",
            "Idle",
            temporal=at(BOLUS_DURATION_TICKS),
            assign={"o-MotorState": 0},
            description="bolus complete after 4000 ms",
        )
        .transition(
            TRANS_EMPTY_ALARM,
            "Infusion",
            "EmptyAlarm",
            event="i-EmptyAlarm",
            assign={"o-MotorState": 0, "o-BuzzerState": 1},
            description="reservoir empty during infusion",
        )
        .transition(
            TRANS_CLEAR_ALARM,
            "EmptyAlarm",
            "Idle",
            event="i-ClearAlarm",
            assign={"o-BuzzerState": 0},
            description="caregiver cleared the alarm",
        )
        .build()
    )


def build_extended_statechart() -> Statechart:
    """A richer GPCA chart: power-on test, occlusion alarm and door-open pause."""
    return (
        StatechartBuilder("gpca_extended")
        .input_events(
            "i-BolusReq",
            "i-EmptyAlarm",
            "i-ClearAlarm",
            "i-Occlusion",
            "i-DoorOpen",
            "i-DoorClose",
        )
        .output_variable("o-MotorState", initial=0)
        .output_variable("o-BuzzerState", initial=0)
        .output_variable("o-AlarmLedState", initial=0)
        .state("PowerOnTest", initial=True, description="start-up self test")
        .state("Idle")
        .state("BolusRequested")
        .state("Infusion")
        .state("EmptyAlarm")
        .state("OcclusionAlarm")
        .state("DoorOpenPause")
        .transition("t_post_done", "PowerOnTest", "Idle", temporal=at(POWER_ON_TEST_TICKS))
        .transition(TRANS_BOLUS_REQUEST, "Idle", "BolusRequested", event="i-BolusReq")
        .transition(
            TRANS_START_INFUSION,
            "BolusRequested",
            "Infusion",
            temporal=before(BOLUS_START_BOUND_TICKS),
            assign={"o-MotorState": 1},
        )
        .transition(
            TRANS_BOLUS_DONE,
            "Infusion",
            "Idle",
            temporal=at(BOLUS_DURATION_TICKS),
            assign={"o-MotorState": 0},
        )
        .transition(
            TRANS_EMPTY_ALARM,
            "Infusion",
            "EmptyAlarm",
            event="i-EmptyAlarm",
            assign={"o-MotorState": 0, "o-BuzzerState": 1, "o-AlarmLedState": 1},
        )
        .transition(
            "t_empty_from_idle",
            "Idle",
            "EmptyAlarm",
            event="i-EmptyAlarm",
            assign={"o-BuzzerState": 1, "o-AlarmLedState": 1},
        )
        .transition(
            "t_occlusion",
            "Infusion",
            "OcclusionAlarm",
            event="i-Occlusion",
            assign={"o-MotorState": 0, "o-BuzzerState": 1, "o-AlarmLedState": 1},
        )
        .transition(
            TRANS_CLEAR_ALARM,
            "EmptyAlarm",
            "Idle",
            event="i-ClearAlarm",
            assign={"o-BuzzerState": 0, "o-AlarmLedState": 0},
        )
        .transition(
            "t_clear_occlusion",
            "OcclusionAlarm",
            "Idle",
            event="i-ClearAlarm",
            assign={"o-BuzzerState": 0, "o-AlarmLedState": 0},
        )
        .transition(
            "t_door_open_idle",
            "Idle",
            "DoorOpenPause",
            event="i-DoorOpen",
            assign={"o-AlarmLedState": 1},
        )
        .transition(
            "t_door_open_infusion",
            "Infusion",
            "DoorOpenPause",
            event="i-DoorOpen",
            assign={"o-MotorState": 0, "o-AlarmLedState": 1},
        )
        .transition(
            "t_door_close",
            "DoorOpenPause",
            "Idle",
            event="i-DoorClose",
            assign={"o-AlarmLedState": 0},
        )
        .build()
    )
