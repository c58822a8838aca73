"""Differential property test of the quiescent-window path.

``ImplementedSystem.run`` replays quiescent stretches in one scheduler loop
(``RTOSScheduler.fast_forward``) instead of one generator activation at a
time.  On generated scenario programs of every pack, on schemes 1 and 2 with
random SUT and fault seeds, under no fault, each plan of the pack's fault
suite, and (on GPCA) a stuck and a glitching level sensor, the window path
must be indistinguishable from the callback path it replaces — forced here
by patching the window entry point so that it never opens a window:

* the same full-trace report (R payload included);
* every ``TaskStats`` field, ``scheduler_stats()`` and every kernel counter
  but ``kernel_window_events``;
* the same scheduler-observer calls, in order;
* a trace equal to the frozen seed engine's, under the same fault seed;

and the window path must have opened windows unless a fault marked the
system ``idle_jobs_faulted`` or no busy-period bound holds.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._reference import SEED_ENGINE
from repro.core.r_testing import execute_r_test
from repro.core.serialization import r_report_to_dict
from repro.faults import FaultPlan, SensorGlitchFault, SensorStuckFault
from repro.integration.base import DEFAULT_ENGINE
from repro.platform.kernel.time import ms
from repro.platform.rtos.scheduler import RTOSScheduler
from repro.scenarios import ScenarioSampler
from repro.systems import get_pack

PACKS = ("gpca", "pacemaker", "cruise")

#: Faults on a level sensor, whose ``read`` idle sensing jobs and the
#: quiescence check call: the stuck value appears at an instant no kernel
#: entry marks, and every glitching read draws from the fault stream.
LEVEL_PLANS = (
    FaultPlan(
        (SensorStuckFault(device="reservoir_sensor", stuck_value=True, from_us=ms(5000)),),
        name="level-stuck",
    ),
    FaultPlan(
        (SensorGlitchFault(device="reservoir_sensor", drop_probability=0.5),),
        name="level-glitch",
    ),
)


def _plans(system_id):
    """Fault plans by name: none, the pack's suite, and GPCA's level plans."""
    extra = LEVEL_PLANS if system_id == "gpca" else ()
    plans = (FaultPlan(), *get_pack(system_id).fault_suite(), *extra)
    return {plan.name: plan for plan in plans}


#: Every (pack, fault plan name) pair the property draws from.
TARGETS = tuple((system_id, name) for system_id in PACKS for name in _plans(system_id))


class _Recorder:
    """A scheduler observer that keeps every call."""

    def __init__(self) -> None:
        self.calls = []

    def segment(self, task_name, start_us, end_us, preempted):
        self.calls.append(("segment", task_name, start_us, end_us, preempted))

    def deadline_miss(self, task_name, at_us):
        self.calls.append(("deadline_miss", task_name, at_us))


def _no_window(scheduler, limit_us):
    """The window entry point, forced shut: resume at the next release."""
    return min(task.release_handle.time_us for task in scheduler.tasks)


def _run(system_id, scheme, case, sut_seed, plan, fault_seed, *, engine=DEFAULT_ENGINE, windows=True):
    pack = get_pack(system_id)
    built = []

    def factory():
        system = plan.instrument(pack.build_system(scheme, seed=sut_seed, engine=engine), seed=fault_seed)
        if engine is DEFAULT_ENGINE:
            system.scheduler.observer = _Recorder()
        built.append(system)
        return system

    with pytest.MonkeyPatch.context() as patch:
        if not windows:
            patch.setattr(RTOSScheduler, "fast_forward", _no_window)
        report = execute_r_test(factory, case)
    system = built[-1]
    return r_report_to_dict(report, include_trace=True), system


def _observed(system):
    return {
        "tasks": {name: vars(stats) for name, stats in system.task_statistics().items()},
        "scheduler": system.scheduler.scheduler_stats(),
        "observer": system.scheduler.observer.calls,
    }


@settings(max_examples=12, deadline=None)
# Shrunk counterexamples of planted defects: moving dormant chains due at the
# window's end instant (1), flipping the order of same-instant releases
# (2, 3), dropping the context-switch charge (4), leaving a level-sensor
# fault's ``read`` branch unmarked (5; 6 is a stuck-level case of the same
# defect) and leaving execution inflation unmarked (7).
@example(target=("gpca", "baseline"), scheme=1, program_seed=1, sut_seed=0, fault_seed=0)
@example(target=("gpca", "baseline"), scheme=2, program_seed=17718, sut_seed=0, fault_seed=0)
@example(target=("gpca", "baseline"), scheme=2, program_seed=0, sut_seed=0, fault_seed=0)
@example(target=("gpca", "baseline"), scheme=1, program_seed=0, sut_seed=0, fault_seed=0)
@example(target=("gpca", "level-glitch"), scheme=1, program_seed=0, sut_seed=0, fault_seed=0)
@example(target=("gpca", "level-stuck"), scheme=2, program_seed=2, sut_seed=0, fault_seed=0)
@example(target=("gpca", "exec-inflation"), scheme=1, program_seed=0, sut_seed=0, fault_seed=0)
@given(
    target=st.sampled_from(TARGETS),
    scheme=st.sampled_from((1, 2)),
    program_seed=st.integers(min_value=0, max_value=2**31 - 1),
    sut_seed=st.integers(min_value=0, max_value=2**31 - 1),
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_windows_replay_the_callback_path(target, scheme, program_seed, sut_seed, fault_seed):
    system_id, plan_name = target
    plan = _plans(system_id)[plan_name]
    program = ScenarioSampler(get_pack(system_id).scenario_space(), seed=program_seed).sample()
    case = program.compile(program_seed)
    args = (system_id, scheme, case, sut_seed, plan, fault_seed)

    windowed, window_system = _run(*args)
    callback, callback_system = _run(*args, windows=False)
    seed_engine, _ = _run(*args, engine=SEED_ENGINE)

    assert windowed == callback
    assert windowed == seed_engine
    assert _observed(window_system) == _observed(callback_system)
    counters = window_system.bundle.simulator.counters()
    opens = (
        not window_system.idle_jobs_faulted
        and window_system.scheduler.idle_busy_bound() is not None
    )
    assert (counters.pop("kernel_window_events") > 0) is opens
    reference = callback_system.bundle.simulator.counters()
    assert reference.pop("kernel_window_events") == 0
    assert counters == reference
