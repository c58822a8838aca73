"""Unit tests for the fixed-priority preemptive scheduler."""

import pytest

from repro.platform.kernel.simulator import Simulator
from repro.platform.kernel.time import ms
from repro.platform.rtos.directives import Compute, Receive, Send
from repro.platform.rtos.scheduler import RTOSScheduler, SchedulerError

#: A period longer than any test below runs: such a task is released once, at
#: its offset.
ONCE = ms(1000)


def make_scheduler(context_switch_us: int = 0):
    sim = Simulator()
    return sim, RTOSScheduler(sim, context_switch_us=context_switch_us)


class TestPeriodicRelease:
    def test_periodic_task_runs_every_period(self):
        sim, rtos = make_scheduler()
        runs = []

        def job():
            runs.append(sim.now)
            yield Compute(ms(1))

        rtos.create_task("periodic", priority=1, job_factory=job, period_us=ms(10))
        rtos.start()
        sim.run_until(ms(45))
        assert runs == [0, ms(10), ms(20), ms(30), ms(40)]

    def test_offset_delays_first_release(self):
        sim, rtos = make_scheduler()
        runs = []

        def job():
            runs.append(sim.now)
            yield Compute(100)

        rtos.create_task("offset", priority=1, job_factory=job, period_us=ms(10), offset_us=ms(4))
        rtos.start()
        sim.run_until(ms(25))
        assert runs == [ms(4), ms(14), ms(24)]

    def test_overrunning_job_skips_next_release(self):
        sim, rtos = make_scheduler()
        runs = []

        def job():
            runs.append(sim.now)
            yield Compute(ms(15))  # longer than the 10 ms period

        task = rtos.create_task("overrun", priority=1, job_factory=job, period_us=ms(10))
        rtos.start()
        sim.run_until(ms(50))
        # Releases at 10, 30, 50 are skipped while the previous job still runs.
        assert runs == [0, ms(20), ms(40)]
        assert task.stats.deadline_misses >= 2

    def test_completion_statistics(self):
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(2))

        task = rtos.create_task("stats", priority=1, job_factory=job, period_us=ms(10))
        rtos.start()
        sim.run_until(ms(35))
        assert task.stats.activations == 4
        assert task.stats.completions == 4
        assert max(task.stats.response_times_us) == ms(2)
        assert task.stats.cpu_time_us == 4 * ms(2)


class TestPreemption:
    def test_higher_priority_preempts_lower(self):
        sim, rtos = make_scheduler()
        finish_times = {}

        def low_job():
            yield Compute(ms(10))
            finish_times["low"] = sim.now

        def high_job():
            yield Compute(ms(2))
            finish_times["high"] = sim.now

        low = rtos.create_task("low", priority=1, job_factory=low_job, period_us=ONCE)
        rtos.create_task("high", priority=5, job_factory=high_job, period_us=ONCE, offset_us=ms(3))
        rtos.start()
        sim.run_until(ms(30))
        # High runs 3..5; low runs 0..3 and 5..12.
        assert finish_times["high"] == ms(5)
        assert finish_times["low"] == ms(12)
        assert low.stats.preemptions == 1

    def test_equal_priority_does_not_preempt(self):
        sim, rtos = make_scheduler()
        finish_times = {}

        def job_a():
            yield Compute(ms(10))
            finish_times["a"] = sim.now

        def job_b():
            yield Compute(ms(2))
            finish_times["b"] = sim.now

        a = rtos.create_task("a", priority=3, job_factory=job_a, period_us=ONCE)
        rtos.create_task("b", priority=3, job_factory=job_b, period_us=ONCE, offset_us=ms(1))
        rtos.start()
        sim.run_until(ms(30))
        assert finish_times["a"] == ms(10)
        assert finish_times["b"] == ms(12)
        assert a.stats.preemptions == 0

    def test_cpu_time_conserved_under_preemption(self):
        sim, rtos = make_scheduler()

        def low_job():
            yield Compute(ms(20))

        def high_job():
            yield Compute(ms(5))

        low = rtos.create_task("low", priority=1, job_factory=low_job, period_us=ONCE)
        high = rtos.create_task("high", priority=5, job_factory=high_job, period_us=ms(10))
        rtos.start()
        sim.run_until(ms(60))
        assert low.stats.cpu_time_us == ms(20)
        assert high.stats.cpu_time_us == high.stats.completions * ms(5)


class TestDeadlineMissAccounting:
    """Regression: each missed activation is counted exactly once.

    ``deadline_misses`` increments in two code paths — the skipped-release
    path of ``_release`` (the previous job still runs, so this activation
    never starts) and the late-completion path of ``_finish_job`` (the job
    ran but responded after its deadline).  The paths cover *disjoint*
    activations: a skipped release is an activation that never became a job,
    a late completion is one that did.  No single activation can traverse
    both, so no miss is ever double-counted.
    """

    def test_late_completion_without_skip_counts_one_miss(self):
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(12))  # runs past the 10 ms deadline, within the period

        task = rtos.create_task(
            "late", priority=1, job_factory=job, period_us=ms(20), deadline_us=ms(10)
        )
        rtos.start()
        sim.run_until(ms(19))  # exactly one activation completes (late)
        assert task.stats.completions == 1
        assert task.stats.deadline_misses == 1

    def test_on_time_completion_counts_no_miss(self):
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(3))

        task = rtos.create_task(
            "fine", priority=1, job_factory=job, period_us=ms(20), deadline_us=ms(10)
        )
        rtos.start()
        sim.run_until(ms(100))
        assert task.stats.completions >= 4
        assert task.stats.deadline_misses == 0

    def test_skipped_release_counts_one_miss_when_the_job_meets_its_deadline(self):
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(15))  # overruns the 10 ms period but not the deadline

        task = rtos.create_task(
            "overrun", priority=1, job_factory=job, period_us=ms(10), deadline_us=ms(20)
        )
        rtos.start()
        sim.run_until(ms(19))  # release at 10 ms skipped; job finishes at 15 ms
        # The job met its (explicit, longer-than-period) deadline, so the
        # only miss is the skipped release — counted exactly once.
        assert task.stats.completions == 1
        assert task.stats.deadline_misses == 1

    def test_implicit_deadline_defaults_to_the_period(self):
        """Audit finding: a periodic task without an explicit deadline gets an
        *implicit* deadline equal to its period (Task.deadline_us default), so
        an overrunning job produces two legitimate misses — the late
        activation (completion path) and the skipped release (release path) —
        one count per missed activation, not a double count of one."""
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(15))

        task = rtos.create_task("overrun", priority=1, job_factory=job, period_us=ms(10))
        assert task.deadline_us == ms(10)
        rtos.start()
        sim.run_until(ms(19))
        assert task.stats.completions == 1
        assert task.stats.deadline_misses == 2

    def test_overrun_with_deadline_counts_each_activation_once(self):
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(15))

        task = rtos.create_task(
            "both", priority=1, job_factory=job, period_us=ms(10), deadline_us=ms(10)
        )
        rtos.start()
        sim.run_until(ms(19))
        # Two distinct missed activations: the job released at 0 finished at
        # 15 ms (late, +1 via the completion path) and the release at 10 ms
        # was skipped (+1 via the release path).  Exactly one count each —
        # the late job itself is NOT additionally counted by the skip path.
        assert task.stats.completions == 1
        assert task.stats.deadline_misses == 2


class TestContextSwitchOverhead:
    def test_overhead_added_on_switch(self):
        sim, rtos = make_scheduler(context_switch_us=500)
        finish = {}

        def job():
            yield Compute(ms(2))
            finish["t"] = sim.now

        rtos.create_task("t", priority=1, job_factory=job, period_us=ONCE)
        rtos.start()
        sim.run_until(ms(10))
        assert finish["t"] == ms(2) + 500


class TestBlocking:
    """No directive blocks: each evaluates at once to the queue's outcome."""

    def test_nonblocking_receive_returns_none_immediately(self):
        sim, rtos = make_scheduler()
        results = []
        queue = rtos.create_queue("q")

        def consumer():
            item = yield Receive(queue)
            results.append((item, sim.now))
            yield Compute(100)

        rtos.create_task("consumer", priority=1, job_factory=consumer, period_us=ONCE)
        rtos.start()
        sim.run_until(ms(5))
        assert results == [(None, 0)]

    def test_send_and_receive_evaluate_to_the_queue_outcome(self):
        sim, rtos = make_scheduler()
        queue = rtos.create_queue("q", capacity=2)
        sent, received = [], []

        def producer():
            for item in ("a", "b", "c"):
                sent.append((yield Send(queue, item)))

        def consumer():
            for _ in range(3):
                received.append((yield Receive(queue)))

        rtos.create_task("producer", priority=2, job_factory=producer, period_us=ONCE)
        rtos.create_task("consumer", priority=1, job_factory=consumer, period_us=ONCE)
        rtos.start()
        sim.run_until(ms(5))
        assert sent == [True, True, False]
        assert received == ["a", "b", None]
        assert queue.stats.dropped == 1


class TestMisc:
    def test_duplicate_task_name_rejected(self):
        _, rtos = make_scheduler()
        rtos.create_task("t", priority=1, job_factory=lambda: iter(()), period_us=ONCE)
        with pytest.raises(SchedulerError):
            rtos.create_task("t", priority=1, job_factory=lambda: iter(()), period_us=ONCE)

    def test_unknown_directive_rejected(self):
        sim, rtos = make_scheduler()

        def bad_job():
            yield "not a directive"

        rtos.create_task("bad", priority=1, job_factory=bad_job, period_us=ONCE)
        rtos.start()
        with pytest.raises(SchedulerError):
            sim.run_until(ms(5))

    def test_cpu_utilization(self):
        sim, rtos = make_scheduler()

        def job():
            yield Compute(ms(5))

        rtos.create_task("busy", priority=1, job_factory=job, period_us=ms(10))
        rtos.start()
        sim.run_until(ms(100))
        assert rtos.tasks[0].stats.cpu_time_us == ms(50)

    def test_cpu_utilization_with_nonzero_simulator_start(self):
        """Releases are anchored at the simulator's start time, so a
        simulator constructed at start_us > 0 runs every job."""
        sim = Simulator(start_us=ms(1000))
        rtos = RTOSScheduler(sim)

        def job():
            yield Compute(ms(5))

        rtos.create_task("busy", priority=1, job_factory=job, period_us=ms(10))
        rtos.start()
        sim.run_until(ms(1100))
        assert rtos.tasks[0].stats.cpu_time_us == ms(50)

    def test_cpu_utilization_ignores_pre_start_warmup(self):
        """Simulated time passing between construction and start() releases
        no job: releases are anchored at start()."""
        sim = Simulator()
        rtos = RTOSScheduler(sim)

        def job():
            yield Compute(ms(5))

        rtos.create_task("busy", priority=1, job_factory=job, period_us=ms(10))
        sim.run_until(ms(1000))  # warm-up with the scheduler not yet started
        assert rtos.tasks[0].stats.cpu_time_us == 0
        rtos.start()
        sim.run_until(ms(2000))
        assert rtos.tasks[0].stats.cpu_time_us == ms(500)

    def test_get_task_by_name(self):
        _, rtos = make_scheduler()
        task = rtos.create_task("named", priority=2, job_factory=lambda: iter(()), period_us=ONCE)
        assert rtos.get_task("named") is task
        with pytest.raises(KeyError):
            rtos.get_task("missing")
