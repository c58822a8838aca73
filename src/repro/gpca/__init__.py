"""The GPCA infusion-pump case study: models, requirements, hardware, scenarios."""

from .hardware import arm7_execution_model
from .interface import build_pump_interface
from .model import (
    BOLUS_DURATION_TICKS,
    BOLUS_START_BOUND_TICKS,
    TRANS_BOLUS_DONE,
    TRANS_BOLUS_REQUEST,
    TRANS_CLEAR_ALARM,
    TRANS_EMPTY_ALARM,
    TRANS_START_INFUSION,
    build_extended_statechart,
    build_fig2_statechart,
)
from .pump import (
    ALL_SCHEMES,
    SCHEME_INTERFERED,
    SCHEME_MULTI_THREADED,
    SCHEME_SINGLE_THREADED,
    scheme_factory,
)
from .requirements import (
    gpca_requirements,
    req1_bolus_start,
    req2_empty_reservoir_alarm,
    req3_empty_reservoir_stop,
    req4_alarm_clear,
)
from .scenarios import (
    BOLUS_SPACING_US,
    alarm_clear_program,
    alarm_clear_test_case,
    all_requirement_programs,
    all_requirement_test_cases,
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
    "BOLUS_DURATION_TICKS",
    "BOLUS_SPACING_US",
    "BOLUS_START_BOUND_TICKS",
    "SCHEME_INTERFERED",
    "SCHEME_MULTI_THREADED",
    "SCHEME_SINGLE_THREADED",
    "TRANS_BOLUS_DONE",
    "TRANS_BOLUS_REQUEST",
    "TRANS_CLEAR_ALARM",
    "TRANS_EMPTY_ALARM",
    "TRANS_START_INFUSION",
    "alarm_clear_program",
    "alarm_clear_test_case",
    "all_requirement_programs",
    "all_requirement_test_cases",
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
    "req3_empty_reservoir_stop",
    "req4_alarm_clear",
    "scheme_factory",
]
