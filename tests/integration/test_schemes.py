"""Integration tests of the three implementation schemes on the simulated platform."""

from functools import partial

import pytest

from repro.core import EventKind
from repro.core.r_testing import execute_r_test
from repro.core.test_generation import Stimulus
from repro.gpca import bolus_request_program
from repro.integration import single_threaded
from repro.platform.kernel.time import ms, seconds
from repro.systems import GPCA_PACK, get_pack

build_system = get_pack("gpca").build_system


def run_single_bolus(system, at_us=ms(100), until_us=seconds(6)):
    system.apply_stimulus(Stimulus(at_us, "m-BolusReq"))
    system.run(until_us)
    return system.trace


class TestScheme1:
    def test_bolus_request_reaches_motor(self):
        trace = run_single_bolus(build_system(1, seed=1))
        m_events = trace.select(kind=EventKind.M, variable="m-BolusReq")
        c_events = trace.select(kind=EventKind.C, variable="c-PumpMotor")
        assert len(m_events) == 1
        assert c_events and c_events[0].value > 0
        assert c_events[0].timestamp_us > m_events[0].timestamp_us

    def test_motor_stops_after_bolus_duration(self):
        trace = run_single_bolus(build_system(1, seed=1))
        changes = trace.value_changes(EventKind.C, "c-PumpMotor")
        assert [value for _, value in changes[:2]] == [1, 0]
        start, stop = changes[0][0], changes[1][0]
        # The bolus lasts 4000 model ticks; platform delays add a little.
        assert seconds(3.9) < stop - start < seconds(4.3)

    def test_io_and_transition_events_recorded(self):
        trace = run_single_bolus(build_system(1, seed=1))
        assert trace.select(kind=EventKind.I, variable="i-BolusReq")
        assert trace.select(kind=EventKind.O, variable="o-MotorState")
        assert trace.select(kind=EventKind.TRANSITION_START, variable="t_bolus_req")

    def test_single_task_created(self):
        system = build_system(1, seed=1)
        system.build()
        assert [task.name for task in system.scheduler.tasks] == ["codem_loop"]
        # An idle cycle: sensor scan, CODE(M) idle scan, housekeeping.
        assert len(system.scheduler.tasks[0].idle_shape) == 3

    def test_unknown_stimulus_variable_rejected(self):
        system = build_system(1, seed=1)
        with pytest.raises(KeyError):
            system.apply_stimulus(Stimulus(ms(1), "m-Nonexistent"))


class TestScheme2:
    def test_pipeline_tasks_and_queues_created(self):
        system = build_system(2, seed=2)
        system.build()
        names = {task.name for task in system.scheduler.tasks}
        assert names == {"sensing", "codem", "actuation"}
        assert system.input_queue.capacity == 16 and system.output_queue.capacity == 16
        idle_segments = {task.name: len(task.idle_shape) for task in system.scheduler.tasks}
        assert idle_segments == {"sensing": 1, "codem": 1, "actuation": 0}

    def test_period_sum_below_deadline(self):
        system = build_system(2, seed=2)
        system.build()
        assert sum(task.period_us for task in system.scheduler.tasks) < ms(100)

    def test_bolus_latency_within_deadline(self):
        system = build_system(2, seed=2)
        trace = run_single_bolus(system)
        m_event = trace.first(kind=EventKind.M, variable="m-BolusReq")
        c_event = trace.first(
            kind=EventKind.C, variable="c-PumpMotor", predicate=lambda event: event.value
        )
        assert c_event.timestamp_us - m_event.timestamp_us <= ms(100)

    def test_queues_carry_traffic(self):
        system = build_system(2, seed=2)
        run_single_bolus(system)
        assert system.input_queue.stats.sent >= 1
        assert system.output_queue.stats.sent >= 1
        assert system.input_queue.stats.dropped == 0


class TestScheme3:
    def test_interference_tasks_created_with_relative_priorities(self):
        system = build_system(3, seed=3)
        system.build()
        by_name = {task.name: task for task in system.scheduler.tasks}
        codem_priority = by_name["codem"].priority
        assert by_name["net_driver"].priority > codem_priority
        assert by_name["logger"].priority == codem_priority
        assert by_name["diagnostics"].priority < codem_priority

    def test_interference_inflates_latency_compared_to_scheme2(self):
        def latency(system):
            trace = run_single_bolus(system)
            m_event = trace.first(kind=EventKind.M, variable="m-BolusReq")
            c_event = trace.first(
                kind=EventKind.C, variable="c-PumpMotor", predicate=lambda event: event.value
            )
            return c_event.timestamp_us - m_event.timestamp_us

        clean = latency(build_system(2, seed=4))
        interfered = latency(build_system(3, seed=4))
        assert interfered > clean

    def test_codem_thread_is_preempted(self):
        system = build_system(3, seed=3)
        run_single_bolus(system)
        stats = system.task_statistics()
        assert stats["codem"].preemptions > 0

    def test_interference_utilization_reported(self):
        system = build_system(3, seed=3)
        utilization = sum(
            task.burst.nominal_us / task.period_us for task in system.config.interference
        )
        assert utilization > 0.5


class TestSchemeComparison:
    """The paper's qualitative Table I shape across the three schemes."""

    def test_scheme2_passes_req1(self):
        case = bolus_request_program(5).compile(5)
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=22), case)
        assert report.passed

    def test_scheme3_violates_req1(self):
        case = bolus_request_program(5).compile(5)
        report = execute_r_test(partial(GPCA_PACK.build_system, 3, seed=33), case)
        assert not report.passed

    def test_scheme3_is_worse_than_scheme1(self):
        case = bolus_request_program(5).compile(5)
        scheme1 = execute_r_test(partial(GPCA_PACK.build_system, 1, seed=11), case)
        scheme3 = execute_r_test(partial(GPCA_PACK.build_system, 3, seed=11), case)
        assert scheme3.violation_count >= scheme1.violation_count

    def test_build_system_dispatch(self):
        assert build_system(1).scheme_name.startswith("scheme1")
        assert build_system(2).scheme_name.startswith("scheme2")
        assert build_system(3).scheme_name.startswith("scheme3")
        with pytest.raises(ValueError):
            build_system(4)

    def test_scheme1_transitions_per_cycle_default(self):
        """Scheme 1 fires one transition per cycle; scheme 2 runs to completion.

        A bolus request fires ``t_bolus_req`` then ``t_start_infusion``.  On
        scheme 2 both run back to back in one CODE(M) invocation; on scheme 1
        the second waits for the next cycle, after that cycle's housekeeping.
        """

        def gap_us(scheme, seed):
            trace = run_single_bolus(build_system(scheme, seed=seed), until_us=seconds(1))
            first_end = trace.first(kind=EventKind.TRANSITION_END, variable="t_bolus_req")
            second_start = trace.first(
                kind=EventKind.TRANSITION_START, variable="t_start_infusion"
            )
            return second_start.timestamp_us - first_end.timestamp_us

        assert single_threaded.TRANSITIONS_PER_CYCLE == 1
        for seed in range(3):
            assert gap_us(1, seed) >= single_threaded.HOUSEKEEPING.best_case_us
            assert gap_us(2, seed) == 0
