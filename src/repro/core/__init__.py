"""The paper's contribution: four-variable instrumentation and R/M testing."""

from .coverage import (
    TransitionCoverage,
    assess_sufficiency,
)
from .four_variables import (
    EventKind,
    TraceRecorder,
)
from .m_testing import MTestAnalyzer
from .report import render_layered_summary, render_m_report, render_r_report
from .requirements import EventSpec, TimingRequirement
from .test_generation import (
    RTestCase,
    Stimulus,
)

__all__ = [
    "EventKind",
    "EventSpec",
    "MTestAnalyzer",
    "RTestCase",
    "Stimulus",
    "TimingRequirement",
    "TraceRecorder",
    "TransitionCoverage",
    "assess_sufficiency",
    "render_layered_summary",
    "render_m_report",
    "render_r_report",
]
