"""The GPCA infusion-pump case study: models, requirements, hardware, scenarios."""

from .hardware import arm7_execution_model
from .interface import build_pump_interface
from .model import (
    TRANS_BOLUS_REQUEST,
    TRANS_START_INFUSION,
    build_extended_statechart,
    build_fig2_statechart,
)
from .requirements import (
    gpca_requirements,
    req1_bolus_start,
    req2_empty_reservoir_alarm,
)
from .scenarios import (
    alarm_clear_program,
    bolus_request_program,
    empty_reservoir_alarm_program,
    empty_reservoir_stop_program,
    gpca_scenario_space,
)

__all__ = [
    "TRANS_BOLUS_REQUEST",
    "TRANS_START_INFUSION",
    "alarm_clear_program",
    "arm7_execution_model",
    "bolus_request_program",
    "build_extended_statechart",
    "build_fig2_statechart",
    "build_pump_interface",
    "empty_reservoir_alarm_program",
    "empty_reservoir_stop_program",
    "gpca_requirements",
    "gpca_scenario_space",
    "req1_bolus_start",
    "req2_empty_reservoir_alarm",
]
