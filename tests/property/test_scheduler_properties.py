"""Property-based tests of the RTOS scheduler's accounting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.kernel.simulator import Simulator
from repro.platform.kernel.time import ms
from repro.platform.rtos.directives import Compute
from repro.platform.rtos.scheduler import RTOSScheduler


@st.composite
def task_sets(draw):
    """Random small periodic task sets (period, execution, priority)."""
    count = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    for index in range(count):
        period_ms = draw(st.integers(min_value=5, max_value=50))
        execution_ms = draw(st.integers(min_value=1, max_value=period_ms))
        priority = draw(st.integers(min_value=1, max_value=5))
        tasks.append((f"task{index}", period_ms, execution_ms, priority))
    return tasks


@given(task_sets())
@settings(max_examples=40, deadline=None)
def test_cpu_time_never_exceeds_wall_clock(task_set):
    simulator = Simulator()
    rtos = RTOSScheduler(simulator)
    for name, period_ms, execution_ms, priority in task_set:
        def make_job(duration=ms(execution_ms)):
            def job():
                yield Compute(duration)
            return job
        rtos.create_task(name, priority=priority, job_factory=make_job(), period_us=ms(period_ms))
    rtos.start()
    horizon = ms(500)
    simulator.run_until(horizon)
    busy = sum(task.stats.cpu_time_us for task in rtos.tasks)
    assert busy <= horizon


@given(task_sets())
@settings(max_examples=40, deadline=None)
def test_completions_never_exceed_activations(task_set):
    simulator = Simulator()
    rtos = RTOSScheduler(simulator)
    for name, period_ms, execution_ms, priority in task_set:
        def make_job(duration=ms(execution_ms)):
            def job():
                yield Compute(duration)
            return job
        rtos.create_task(name, priority=priority, job_factory=make_job(), period_us=ms(period_ms))
    rtos.start()
    simulator.run_until(ms(300))
    for task in rtos.tasks:
        assert task.stats.completions <= task.stats.activations
        assert all(response >= 0 for response in task.stats.response_times_us)


@given(task_sets())
@settings(max_examples=30, deadline=None)
def test_highest_priority_task_is_never_preempted(task_set):
    simulator = Simulator()
    rtos = RTOSScheduler(simulator)
    top_priority = max(priority for _, _, _, priority in task_set)
    for name, period_ms, execution_ms, priority in task_set:
        def make_job(duration=ms(execution_ms)):
            def job():
                yield Compute(duration)
            return job
        rtos.create_task(name, priority=priority, job_factory=make_job(), period_us=ms(period_ms))
    rtos.start()
    simulator.run_until(ms(300))
    strictly_top = [
        task for task in rtos.tasks
        if task.priority == top_priority
        and sum(1 for other in rtos.tasks if other.priority == top_priority) == 1
    ]
    for task in strictly_top:
        assert task.stats.preemptions == 0
