"""The four-variable interface of the GPCA infusion pump.

Declares every monitored, input, output and controlled variable of the case
study and the Input-Device / Output-Device pairings between them.  This is the
formal abstraction boundary the paper's testing framework is anchored to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.four_variables import FourVariableInterface


def build_pump_interface() -> FourVariableInterface:
    """The complete four-variable interface of the infusion-pump implementation."""
    from ..core.four_variables import FourVariableInterface

    interface = FourVariableInterface()

    # Monitored variables: physical changes observed by the hardware platform.
    interface.monitored("m-BolusReq", description="bolus-request button electrical state")
    interface.monitored("m-ClearAlarm", description="clear-alarm button electrical state")
    interface.monitored("m-EmptyReservoir", description="drug reservoir empty condition")
    interface.monitored("m-Occlusion", description="downstream line occlusion condition")
    interface.monitored("m-DoorOpen", description="pump door / syringe holder open condition")

    # Input variables: occurrences read by CODE(M).
    interface.input("i-BolusReq", description="bolus request read by the generated code")
    interface.input("i-ClearAlarm", description="clear-alarm request read by the generated code")
    interface.input("i-EmptyAlarm", description="empty-reservoir condition read by the generated code")
    interface.input("i-Occlusion", description="occlusion condition read by the generated code")
    interface.input("i-DoorOpen", description="door-open condition read by the generated code")
    interface.input("i-DoorClose", description="door-closed condition read by the generated code")

    # Output variables: values written by CODE(M).
    interface.output("o-MotorState", var_type="int", initial=0, description="commanded pump motor state")
    interface.output("o-BuzzerState", var_type="int", initial=0, description="commanded buzzer state")
    interface.output("o-AlarmLedState", var_type="int", initial=0, description="commanded alarm LED state")

    # Controlled variables: physical changes enforced by the hardware platform.
    interface.controlled("c-PumpMotor", var_type="int", initial=0, description="physical pump motor speed")
    interface.controlled("c-Buzzer", var_type="int", initial=0, description="physical buzzer drive")
    interface.controlled("c-AlarmLed", var_type="int", initial=0, description="physical alarm LED drive")

    # Input-Device pairings (m -> i).
    interface.link_input("m-BolusReq", "i-BolusReq")
    interface.link_input("m-ClearAlarm", "i-ClearAlarm")
    interface.link_input("m-EmptyReservoir", "i-EmptyAlarm")
    interface.link_input("m-Occlusion", "i-Occlusion")
    interface.link_input("m-DoorOpen", "i-DoorOpen")

    # Output-Device pairings (o -> c).
    interface.link_output("o-MotorState", "c-PumpMotor")
    interface.link_output("o-BuzzerState", "c-Buzzer")
    interface.link_output("o-AlarmLedState", "c-AlarmLed")

    interface.validate()
    return interface
