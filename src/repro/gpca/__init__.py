"""The GPCA infusion-pump case study: models, requirements, hardware, scenarios."""

from .hardware import arm7_execution_model
from .interface import build_pump_interface
from .model import (
    TRANS_BOLUS_REQUEST,
    TRANS_START_INFUSION,
    build_extended_statechart,
    build_fig2_statechart,
)
from .pump import (
    ALL_SCHEMES,
    scheme_factory,
)
from .requirements import (
    gpca_requirements,
    req1_bolus_start,
    req2_empty_reservoir_alarm,
)
from .scenarios import (
    alarm_clear_program,
    alarm_clear_test_case,
    bolus_request_program,
    bolus_request_test_case,
    empty_reservoir_alarm_program,
    empty_reservoir_alarm_test_case,
    empty_reservoir_stop_program,
    empty_reservoir_stop_test_case,
    gpca_scenario_space,
)

__all__ = [
    "ALL_SCHEMES",
    "TRANS_BOLUS_REQUEST",
    "TRANS_START_INFUSION",
    "alarm_clear_program",
    "alarm_clear_test_case",
    "arm7_execution_model",
    "bolus_request_program",
    "bolus_request_test_case",
    "build_extended_statechart",
    "build_fig2_statechart",
    "build_pump_interface",
    "empty_reservoir_alarm_program",
    "empty_reservoir_alarm_test_case",
    "empty_reservoir_stop_program",
    "empty_reservoir_stop_test_case",
    "gpca_requirements",
    "gpca_scenario_space",
    "req1_bolus_start",
    "req2_empty_reservoir_alarm",
    "scheme_factory",
]
