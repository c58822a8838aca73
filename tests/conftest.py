"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.codegen.generator import generate_code
from repro.core.four_variables import TraceRecorder
from repro.gpca.interface import build_pump_interface
from repro.gpca.model import build_extended_statechart, build_fig2_statechart
from repro.gpca.requirements import req1_bolus_start
from repro.platform import Simulator


@pytest.fixture
def fig2_chart():
    """The Fig. 2 infusion-pump statechart."""
    return build_fig2_statechart()


@pytest.fixture
def extended_chart():
    """The extended GPCA statechart."""
    return build_extended_statechart()


@pytest.fixture
def fig2_artifacts(fig2_chart):
    """Generated CODE(M) artefacts for the Fig. 2 chart."""
    return generate_code(fig2_chart)


@pytest.fixture
def pump_interface():
    """The four-variable interface of the pump."""
    return build_pump_interface()


@pytest.fixture
def req1():
    """REQ1: bolus start within 100 ms."""
    return req1_bolus_start()


@pytest.fixture
def simulator():
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def recorder(simulator):
    """A trace recorder bound to the simulator clock."""
    return TraceRecorder(lambda: simulator.now)
