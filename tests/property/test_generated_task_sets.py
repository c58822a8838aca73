"""Differential property test of quiescent windows on generated task sets.

``RTOSScheduler.fast_forward`` replays idle jobs in windows: a confined
release group from its precompiled plan, any other busy period through the
general loop.  ``test_window_properties.py`` checks the window path on the
three packs' fixed task sets; this property generates the task sets:

* 2–5 periodic tasks, periods from {5, 10, 20, 25, 50} ms, offsets, and
  priorities from a range of three, so that ties are common;
* idle shapes of 0–3 jittered segments, some with an ``enter`` hook, some
  able to draw zero (a group holding one is never confined);
* a context switch of 0 or 150 µs;
* a clock-drift factor of one or in (1, 3], applied by ``ClockDriftFault``;
* one-shot kernel entries, each of which ends the window it falls in.

Every job runs its idle shape, so the system is always quiescent and the
driver below offers a window at every release instant, as
``ImplementedSystem.run`` does.  Each set runs three ways: with windows
open, with ``fast_forward`` forced shut, and on the frozen seed engine.  All
three must make the same draws, hook calls and entry callbacks, in the same
order, and end with the same ``TaskStats``.  The two production runs must
also agree on the observer calls, ``scheduler_stats()`` and every kernel
counter but ``kernel_window_events``; the seed kernel must have dispatched
as many events as the production kernel counts.  Every window must start and
end with the scheduler idle and no task holding a job.
"""

from __future__ import annotations

import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro._reference import SEED_ENGINE
from repro.faults.models import ClockDriftFault
from repro.integration.base import DEFAULT_ENGINE
from repro.platform.kernel.random import JitterModel
from repro.platform.kernel.time import ms
from repro.platform.rtos.directives import Compute
from repro.platform.rtos.scheduler import RTOSScheduler

PERIODS_MS = (5, 10, 20, 25, 50)
HORIZON_US = ms(600)

#: Jitter bounds: none (every draw is the worst case) as often as not.
jitters = st.one_of(st.just(0), st.integers(min_value=0, max_value=300))
#: A segment: ``(nominal µs, plus µs, minus µs, has an enter hook)``.
segments = st.tuples(st.integers(min_value=0, max_value=1500), jitters, jitters, st.booleans())
#: A task: ``(period ms, offset µs, priority, segments)``.  Offsets on the
#: 5 ms grid of the periods make tasks share release instants.
tasks = st.tuples(
    st.sampled_from(PERIODS_MS),
    st.one_of(
        st.integers(min_value=0, max_value=4).map(lambda step: step * ms(5)),
        st.integers(min_value=0, max_value=ms(20)),
    ),
    st.integers(min_value=1, max_value=3),
    st.lists(segments, max_size=3).map(tuple),
)
#: A task set: ``(tasks, context switch µs, drift, one-shot entry instants,
#: seed)``; the clock factor is ``1 + drift``.
task_sets = st.tuples(
    st.lists(tasks, min_size=2, max_size=5).map(tuple),
    st.sampled_from((0, 150)),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0, exclude_min=True)),
    st.lists(st.integers(min_value=0, max_value=HORIZON_US), max_size=3).map(tuple),
    st.integers(min_value=0, max_value=2**31 - 1),
)


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


_fast_forward = RTOSScheduler.fast_forward


def _holds_no_job(scheduler):
    return scheduler.idle and all(task.current_job is None for task in scheduler.tasks)


def _checked_window(scheduler, limit_us):
    """The window entry point, checking that the scheduler is idle and no
    task holds a job when a window starts and when it ends: ``_release``
    skips a release exactly while its task holds one."""
    assert _holds_no_job(scheduler)
    instant = _fast_forward(scheduler, limit_us)
    assert _holds_no_job(scheduler)
    return instant


def _build(task_set, engine):
    """A started scheduler running ``task_set`` on ``engine``, and its log."""
    specs, switch, drift, entries, seed = task_set
    simulator = engine.simulator_factory()
    scheduler = (engine.scheduler_class or RTOSScheduler)(simulator, context_switch_us=switch)
    scheduler.observer = _Recorder()
    rng = random.Random(seed)
    log = []

    def drawn(name, sample):
        value = sample(rng)
        log.append(("draw", name, value))
        return value

    def entered(name, at_us):
        log.append(("enter", name, at_us))

    for number, (period_ms, offset_us, priority, shape_spec) in enumerate(specs):
        name = f"t{number}"
        shape = tuple(
            (
                partial(drawn, name, JitterModel(nominal, plus, minus).sample),
                nominal + plus,
                max(0, nominal - minus),
                partial(entered, name) if hooked else None,
            )
            for nominal, plus, minus, hooked in shape_spec
        )

        def body(shape=shape):
            for draw, _, _, enter in shape:
                if enter is not None:
                    enter(simulator.now)
                yield Compute(draw())

        task = scheduler.create_task(
            name, priority, body, period_us=ms(period_ms), offset_us=offset_us
        )
        task.idle_shape = shape
    system = SimpleNamespace(
        bundle=SimpleNamespace(simulator=simulator), scheduler=scheduler, idle_jobs_faulted=False
    )
    ClockDriftFault(drift=drift).instrument(system, None)
    assert not system.idle_jobs_faulted
    for at_us in entries:
        simulator.schedule_at(at_us, partial(log.append, ("entry", at_us)))
    scheduler.start()
    return simulator, scheduler, log


def _run(task_set, *, engine=DEFAULT_ENGINE, windows=True):
    simulator, scheduler, log = _build(task_set, engine)
    if engine is not DEFAULT_ENGINE:
        simulator.run_until(HORIZON_US)
        return simulator, scheduler, log
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RTOSScheduler, "fast_forward", _checked_window if windows else _no_window)
        while True:
            instant = min(task.release_handle.time_us for task in scheduler.tasks)
            if instant > HORIZON_US:
                break
            if instant > simulator.now:
                simulator.run_until(instant - 1)
            if scheduler.idle:
                instant = scheduler.fast_forward(HORIZON_US + 1)
            simulator.run_until(min(instant, HORIZON_US))
        simulator.run_until(HORIZON_US)
    return simulator, scheduler, log


def _stats(scheduler):
    return {task.name: vars(task.stats) for task in scheduler.tasks}


def _paths(scheduler):
    """Which replay paths the windowed run's task set allows."""
    model = scheduler._window
    if model is None or model.bound is None:
        return "no bound"
    plans = (model.plans or {}).values()
    confined = [plan for plan in plans if plan.ops]
    if confined and len(confined) < len(plans):
        return "plans and general loop"
    return "plans only" if confined else "general loop only"


@settings(max_examples=150, deadline=None)
# Counterexamples hypothesis shrank for planted defects: a group plan that
# takes the last of two equal-priority jobs first (1), one that drops the
# zero-elapsed preemption of a job a same-instant release outranks (2), and
# task releases re-armed at drifted periods (3).
@example(
    task_set=(((5, 0, 1, ((1, 0, 0, False), (1, 0, 0, False))), (5, 0, 1, ((1, 0, 0, False),))), 0, 0.0, (), 0)
)
@example(
    task_set=(((5, 0, 1, ()), (5, 0, 1, ((1, 0, 0, False),)), (5, 0, 2, ((1, 0, 0, True),))), 0, 0.0, (), 0)
)
@example(task_set=(((5, 0, 1, ()), (5, 0, 1, ())), 0, 1.0, (), 0))
# A confinement test that leaves out the per-job preemption switch, which
# random sets seldom reach: the low-priority job t0 starts at 0 and t1
# preempts it before any time elapses, so the group {t0, t1} runs
# 2300 + 2300 + 3 × 150 = 5050 µs, past t2's release at 5 ms, while its
# worst case without that switch reads 4900 µs.
@example(
    task_set=(
        (
            (10, 0, 1, ((2300, 0, 0, False),)),
            (10, 0, 2, ((2300, 0, 0, True),)),
            (10, ms(5), 3, ((100, 0, 0, False),)),
        ),
        150,
        0.0,
        (),
        0,
    )
)
# The suite's clock drift (×2.5) on GPCA's scheme-2 shape: the drifted
# {t0, t2} group at 20 ms is not confined, every other group is.
@example(
    task_set=(
        (
            (10, 0, 2, ((1500, 400, 400, False),)),
            (25, 0, 1, ((400, 150, 150, True),)),
            (10, 0, 2, ()),
        ),
        150,
        1.5,
        (),
        3,
    )
)
@given(task_set=task_sets)
def test_generated_task_sets_replay_the_callback_path(task_set):
    windowed, window_scheduler, window_log = _run(task_set)
    shut, shut_scheduler, shut_log = _run(task_set, windows=False)
    seed, seed_scheduler, seed_log = _run(task_set, engine=SEED_ENGINE)
    event(_paths(window_scheduler))

    assert window_log == shut_log == seed_log
    assert _stats(window_scheduler) == _stats(shut_scheduler) == _stats(seed_scheduler)
    assert window_scheduler.observer.calls == shut_scheduler.observer.calls
    assert window_scheduler.scheduler_stats() == shut_scheduler.scheduler_stats()
    counters = windowed.counters()
    reference = shut.counters()
    assert reference.pop("kernel_window_events") == 0
    counters.pop("kernel_window_events")
    assert counters == reference
    assert seed.events_processed == reference["kernel_events_processed"]
