"""Unit tests for the platform fault models and fault plans."""

from __future__ import annotations

import pickle

import pytest

from repro.faults.models import (
    ClockDriftFault,
    ExecutionInflationFault,
    FaultPlan,
    PriorityInversionFault,
    QueueFault,
    SensorGlitchFault,
    SensorStuckFault,
    default_fault_suite,
    fault_from_dict,
)
from repro.core.four_variables import EventKind
from repro.platform.kernel.random import JitterModel, RandomSource
from repro.platform.kernel.simulator import Simulator
from repro.platform.kernel.time import ms
from repro.platform.rtos.directives import Compute
from repro.platform.rtos.scheduler import RTOSScheduler
from repro.systems import get_pack

build_system = get_pack("gpca").build_system

#: Faults on a GPCA level sensor, whose ``read`` idle sensing jobs call.
GPCA_LEVEL_PLANS = (
    FaultPlan((SensorStuckFault(device="reservoir_sensor", stuck_value=True),), name="level-stuck"),
    FaultPlan((SensorGlitchFault(device="reservoir_sensor", drop_probability=0.5),), name="level-glitch"),
)


class _StubSystem:
    """The minimal system surface the fault models instrument."""

    class _Bundle:
        def __init__(self, simulator, hardware=None):
            self.simulator = simulator
            self.hardware = hardware

    def __init__(self, simulator=None, hardware=None):
        simulator = simulator or Simulator()
        self.bundle = self._Bundle(simulator, hardware)
        self.scheduler = RTOSScheduler(simulator)


def _rng(name="test"):
    return RandomSource(0).stream(name)


class TestClockDrift:
    def test_relative_delays_scale_and_absolute_times_do_not(self):
        system = _StubSystem()
        simulator = system.bundle.simulator
        ClockDriftFault(drift=1.0).instrument(system, _rng())
        fired = []
        simulator.schedule(ms(10), lambda: fired.append(("relative", simulator.now)))
        simulator.schedule_at(ms(10), lambda: fired.append(("absolute", simulator.now)))
        simulator.run_until(ms(30))
        assert ("absolute", ms(10)) in fired
        assert ("relative", ms(20)) in fired  # 10 ms doubled by the drift

    def test_rejects_total_clock_stop(self):
        with pytest.raises(ValueError):
            ClockDriftFault(drift=-1.0)

    def test_declares_its_factor_to_the_scheduler(self):
        system = _StubSystem()
        system.idle_jobs_faulted = False
        ClockDriftFault(drift=1.5).instrument(system, _rng())
        assert system.scheduler.clock_factor == 2.5
        assert not system.idle_jobs_faulted

    @pytest.mark.parametrize(
        "system_id, bounds", [("gpca", (None, 8000)), ("pacemaker", (None, 6125)), ("cruise", (None, 6125))]
    )
    def test_scales_the_busy_period_bound(self, system_id, bounds):
        """The suite's drift (×2.5) leaves scheme 2 a bound, scheme 1 none."""
        build = get_pack(system_id).build_system
        for scheme, bound in zip((1, 2), bounds):
            system = FaultPlan((ClockDriftFault(drift=1.5),)).instrument(build(scheme, seed=3), seed=3)
            system.build()
            assert system.scheduler.idle_busy_bound() == bound

    @pytest.mark.parametrize(
        "faults",
        [(ClockDriftFault(drift=-0.5),), (ClockDriftFault(drift=0.5), ClockDriftFault(drift=0.5))],
        ids=("fast-clock", "stacked"),
    )
    def test_drift_no_written_bound_covers_keeps_the_callback_path(self, faults):
        """A factor below one, or two roundings in a row, marks the system."""
        system = FaultPlan(faults).instrument(build_system(2, seed=3), seed=3)
        system.run(ms(2000))
        assert system.idle_jobs_faulted
        assert system.bundle.simulator.counters()["kernel_window_events"] == 0


class TestExecutionInflation:
    def _run_one_job(self, fault):
        system = _StubSystem()
        simulator, scheduler = system.bundle.simulator, system.scheduler
        if fault is not None:
            fault.instrument(system, _rng())
        done = []

        def job():
            yield Compute(ms(2))
            done.append(simulator.now)

        # The 1 s period outlasts the run, so the job is released once, at 0.
        scheduler.create_task("codem", priority=1, job_factory=job, period_us=ms(1000))
        scheduler.start()
        simulator.run_until(ms(50))
        return done[0]

    def test_factor_inflates_compute_segments(self):
        assert self._run_one_job(None) == ms(2)
        assert self._run_one_job(ExecutionInflationFault(factor=3.0)) == ms(6)

    def test_task_filter_restricts_scope(self):
        # The stub's only task is named "codem"; a filter for another name
        # must leave its compute segments untouched.
        assert self._run_one_job(ExecutionInflationFault(factor=3.0, task="sensing")) == ms(2)

    def test_overrun_is_seed_deterministic(self):
        fault = ExecutionInflationFault(
            factor=1.0, overrun=JitterModel(ms(5), ms(1), ms(1)), overrun_probability=1.0
        )
        first = self._run_one_job(fault)
        second = self._run_one_job(fault)
        assert first == second
        assert first >= ms(2) + ms(4)  # nominal segment plus at least the overrun floor

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ExecutionInflationFault(overrun_probability=1.5)


class TestQueueFault:
    def _system_with_queue(self, fault):
        system = _StubSystem()
        fault.instrument(system, _rng())
        queue = system.scheduler.create_queue("i_events", capacity=8)
        return system, queue

    def test_drop_loses_messages_silently(self):
        _, queue = self._system_with_queue(QueueFault(queue="i_events", drop_probability=1.0))
        assert queue.send("occurrence") is True  # sender sees success
        assert len(queue) == 0

    def test_delay_redelivers_later_and_wakes_receivers(self):
        system, queue = self._system_with_queue(
            QueueFault(queue="i_events", delay_us=ms(5), delay_probability=1.0)
        )
        simulator = system.bundle.simulator
        assert queue.send("late") is True
        assert len(queue) == 0
        simulator.run_until(ms(10))
        assert queue.receive_nowait() == "late"

    def test_reorder_jumps_the_fifo(self):
        _, queue = self._system_with_queue(QueueFault(queue="i_events", reorder_probability=1.0))
        queue.send("first")
        queue.send("second")
        assert queue.receive_nowait() == "second"

    def test_rejects_delay_probability_without_a_delay(self):
        """A delay probability with delay_us=0 would be a silent no-op fault."""
        with pytest.raises(ValueError, match="delay_us"):
            QueueFault(queue="o_events", delay_probability=0.8)

    def test_rejects_probabilities_summing_above_one(self):
        """Drop/delay/reorder are disjoint slices of one roll; a sum above one
        would silently cap the later outcomes below their configured rates."""
        with pytest.raises(ValueError, match="sum"):
            QueueFault(queue="i_events", drop_probability=0.5, reorder_probability=0.9)

    def test_name_filter_leaves_other_queues_alone(self):
        system = _StubSystem()
        QueueFault(queue="o_events", drop_probability=1.0).instrument(system, _rng())
        queue = system.scheduler.create_queue("i_events")
        queue.send("kept")
        assert queue.receive_nowait() == "kept"


class TestPriorityInversion:
    def test_registers_a_top_priority_hog(self):
        system = _StubSystem()
        PriorityInversionFault(period_us=ms(50)).instrument(system, _rng())
        hog = system.scheduler.get_task("fault_inversion_hog")
        assert hog.period_us == ms(50)
        assert hog.priority > 10

    def test_hog_steals_cpu_windows(self):
        system = _StubSystem()
        simulator, scheduler = system.bundle.simulator, system.scheduler
        PriorityInversionFault(
            period_us=ms(20), window=JitterModel(ms(10)), offset_us=ms(1)
        ).instrument(system, _rng())
        done = []

        def job():
            yield Compute(ms(5))
            done.append(simulator.now)

        scheduler.create_task("victim", priority=1, job_factory=job, period_us=ms(1000))
        scheduler.start()
        simulator.run_until(ms(50))
        assert done and done[0] > ms(5)  # the clean platform would finish at 5 ms


class TestSensorFaults:
    def test_stuck_level_sensor_freezes_reads(self):
        system = build_system(1, seed=3)
        SensorStuckFault(device="reservoir_sensor", stuck_value=False).instrument(
            system, _rng()
        )
        sensor = system.bundle.hardware.reservoir_sensor
        sensor.set_physical(True)
        system.bundle.simulator.run_until(ms(50))
        assert sensor.read() is False  # latched samples never reach software

    @pytest.mark.parametrize(
        "fault",
        [
            SensorStuckFault(device="reservoir_sensor", stuck_value=False),
            SensorGlitchFault(device="reservoir_sensor", drop_probability=1.0),
        ],
        ids=["stuck", "glitch"],
    )
    def test_level_sensor_fault_reaches_the_trace(self, fault):
        # The interfacing code must read the sensor through the wrapped
        # ``read()``, so the empty reservoir never reaches the software.
        def alarms(fault):
            system = build_system(2, seed=3)
            if fault is not None:
                fault.instrument(system, _rng())
            system.bundle.stimulus_actions["m-EmptyReservoir"](ms(500))
            system.run(ms(2000))
            return system.trace.select(EventKind.I, "i-EmptyAlarm")

        assert alarms(None)
        assert alarms(fault) == []

    def test_stuck_button_swallows_polled_events(self):
        system = build_system(1, seed=3)
        SensorStuckFault(device="bolus_button").instrument(system, _rng())
        button = system.bundle.hardware.bolus_button
        button.trigger(True)
        button.start()
        system.bundle.simulator.run_until(ms(50))
        assert button.poll() == []

    def test_glitch_drops_a_seeded_fraction_of_events(self):
        system = build_system(1, seed=3)
        SensorGlitchFault(device="clear_alarm_button", drop_probability=0.5).instrument(
            system, _rng()
        )
        button = system.bundle.hardware.clear_alarm_button
        button.start()
        survived = 0
        for press in range(40):
            button.trigger(True)
            system.bundle.simulator.run_until(ms(20 * (press + 1)))
            survived += len(button.poll())
        assert 0 < survived < 40  # some dropped, some through


class TestFaultPlan:
    def test_empty_plan_instrument_is_identity(self):
        system = build_system(1, seed=1)
        before = (
            system.bundle.simulator.schedule,
            system.scheduler._advance,
            system.scheduler.create_queue,
        )
        assert FaultPlan().instrument(system, seed=7) is system
        after = (
            system.bundle.simulator.schedule,
            system.scheduler._advance,
            system.scheduler.create_queue,
        )
        assert before == after  # no wrapper hooks were installed

    #: Per pack and plan of its fault suite (plus a stuck and a glitching
    #: GPCA level sensor): whether the plan marks the system
    #: ``idle_jobs_faulted`` (its hook reaches an idle job or the quiescence
    #: check), and the schemes on which the faulted system still opens
    #: quiescent windows.  The priority-inversion hog leaves scheme 1 no
    #: busy-period bound: its worst-case utilisation reaches one.  Clock
    #: drift declares its factor instead of marking the system; scaled by
    #: it, scheme 2 keeps a bound and scheme 1 does not.
    WINDOW_RULE = {
        ("gpca", "clock-drift"): (False, (2,)),
        ("gpca", "exec-inflation"): (True, ()),
        ("gpca", "queue-loss"): (False, (1, 2)),
        ("gpca", "queue-delay"): (False, (1, 2)),
        ("gpca", "priority-inversion"): (False, (2,)),
        ("gpca", "sensor-stuck"): (False, (1, 2)),
        ("gpca", "sensor-glitch"): (False, (1, 2)),
        ("gpca", "level-stuck"): (True, ()),
        ("gpca", "level-glitch"): (True, ()),
        ("pacemaker", "clock-drift"): (False, (2,)),
        ("pacemaker", "exec-inflation"): (True, ()),
        ("pacemaker", "queue-loss"): (False, (1, 2)),
        ("pacemaker", "sensor-stuck"): (False, (1, 2)),
        ("pacemaker", "sensor-glitch"): (False, (1, 2)),
        ("cruise", "clock-drift"): (False, (2,)),
        ("cruise", "exec-inflation"): (True, ()),
        ("cruise", "queue-delay"): (False, (1, 2)),
        ("cruise", "sensor-stuck"): (False, (1, 2)),
        ("cruise", "sensor-glitch"): (False, (1, 2)),
    }

    @pytest.mark.parametrize(
        "system_id, plan",
        [
            (system_id, plan)
            for system_id in ("gpca", "pacemaker", "cruise")
            for plan in get_pack(system_id).fault_suite()
        ]
        + [("gpca", plan) for plan in GPCA_LEVEL_PLANS],
        ids=lambda value: getattr(value, "name", value),
    )
    @pytest.mark.parametrize("scheme", (1, 2))
    def test_which_faults_close_windows(self, system_id, plan, scheme):
        """A fault keeps the callback path only when idle jobs or the
        quiescence check reach its hook; the same system unfaulted opens
        windows."""
        marks, window_schemes = self.WINDOW_RULE[(system_id, plan.name)]
        build = get_pack(system_id).build_system
        clean = build(scheme, seed=3)
        clean.run(ms(2000))
        assert clean.bundle.simulator.counters()["kernel_window_events"] > 0
        faulted = plan.instrument(build(scheme, seed=3), seed=3)
        faulted.run(ms(2000))
        assert faulted.idle_jobs_faulted is marks
        opened = faulted.bundle.simulator.counters()["kernel_window_events"] > 0
        assert opened is (scheme in window_schemes)

    def test_round_trips_through_dict_and_pickle(self):
        for plan in default_fault_suite():
            assert FaultPlan.from_dict(plan.to_dict()) == plan
            assert pickle.loads(pickle.dumps(plan)) == plan

    def test_dict_valued_any_fields_round_trip_unconverted(self):
        """Only fields *declared* as JitterModel deserialize as jitter models;
        an Any-typed field holding a dict must come back as that dict."""
        fault = SensorStuckFault(device="reservoir_sensor", stuck_value={"level": 1})
        assert fault_from_dict(fault.to_dict()) == fault
        empty_dict_value = SensorStuckFault(stuck_value={})
        assert fault_from_dict(empty_dict_value.to_dict()) == empty_dict_value

    def test_fault_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict({"kind": "cosmic-ray"})

    def test_describe_names_every_fault(self):
        for plan in default_fault_suite():
            description = plan.describe()
            assert plan.name in description
