"""Common machinery shared by the three implementation schemes.

An *implemented system* (Fig. 1-(3) of the paper) is CODE(M) plus the target
platform plus the interfacing code that connects them.  The scheme classes in
this package differ only in task topology; everything else — the platform
bundle, the generated-code runtime, the execution-time accounting, the
measurement probes and the m-event stimulus routing — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..codegen.execution_model import ExecutionTimeModel
from ..codegen.generator import GeneratedArtifacts
from ..core.four_variables import FourVariableInterface, Trace, TraceRecorder
from ..core.instrumentation import ProbeConfiguration
from ..core.sut import SystemUnderTest
from ..core.test_generation import Stimulus
from ..model.declarations import OutputWrite
from ..platform.kernel.random import RandomSource
from ..platform.kernel.simulator import Simulator
from ..platform.kernel.time import US_PER_MODEL_TICK
from ..platform.rtos.directives import Compute
from ..platform.rtos.scheduler import RTOSScheduler
from ..platform.rtos.task import IdleSegment
from .interfacing import EventInputBinding, InputInterfacing, LevelInputBinding, OutputInterfacing

#: A callable that injects one m-event stimulus at an absolute platform time.
StimulusAction = Callable[[int], None]

#: CPU time the target RTOS charges for every context switch.
CONTEXT_SWITCH_US = 150


@dataclass(frozen=True)
class EngineProfile:
    """A pluggable runtime engine: the kernel plus the trace recording path.

    The default engine is the optimised production one (``Simulator`` +
    ``TraceRecorder``); ``repro._reference.seed_engine.SEED_ENGINE`` is the
    frozen pre-optimisation engine kept as a byte-identity oracle.  The
    factories are duck-typed — anything with the ``Simulator`` /
    ``TraceRecorder`` surface works — so equivalence tests and benchmarks can
    run whole systems on either engine through any pack's
    ``build_system(..., engine=...)``.
    """

    name: str
    simulator_factory: Callable[[], Any]
    recorder_factory: Callable[[Callable[[], int]], Any]
    #: Optional RTOS-scheduler class override (None = production
    #: ``RTOSScheduler``).  The seed engine uses this to freeze the pre-rebuild
    #: scheduler hot path alongside its kernel and recorder.
    scheduler_class: Optional[Any] = None
    #: Optional wrapper applied to every concrete device class before
    #: instantiation (None = production device behaviour).  The seed engine
    #: substitutes the pre-rebuild sampling/latching implementations.
    device_wrapper: Optional[Callable[[type], type]] = None


#: The production engine: optimised kernel + columnar trace recorder.
DEFAULT_ENGINE = EngineProfile(
    name="default",
    simulator_factory=Simulator,
    recorder_factory=TraceRecorder,
)


@dataclass
class PlatformBundle:
    """Everything the integration layer needs from the platform and case study.

    A system pack's platform builder makes one of these per run: the
    simulator, the recorder, the concrete hardware and environment, the
    four-variable interface declaration, the interfacing code and the mapping
    from monitored variables to environment stimulus actions.
    """

    simulator: Simulator
    recorder: TraceRecorder
    #: The device collection: ``start()`` begins every input device's
    #: sampling, and each device is an attribute (the fault models' target).
    hardware: Any
    #: The environment that schedules the stimulus actions' physical changes.
    environment: Any
    interface: FourVariableInterface
    input_interfacing: InputInterfacing
    output_interfacing: OutputInterfacing
    stimulus_actions: Dict[str, StimulusAction] = field(default_factory=dict)
    #: Scheduler class the integration layer should instantiate (None =
    #: production ``RTOSScheduler``); carried from the engine profile.
    scheduler_class: Optional[Any] = None


@dataclass
class SchemeConfig:
    """Configuration shared by every implementation scheme."""

    execution_model: ExecutionTimeModel = field(default_factory=ExecutionTimeModel)
    probes: ProbeConfiguration = field(default_factory=ProbeConfiguration.m_level)
    seed: int = 0


class ImplementedSystem(SystemUnderTest):
    """Base class of the three implementation schemes."""

    scheme_name = "base"

    def __init__(
        self,
        bundle: PlatformBundle,
        artifacts: GeneratedArtifacts,
        config: Optional[SchemeConfig] = None,
    ) -> None:
        self.bundle = bundle
        self.config = config or SchemeConfig()
        self.code = artifacts.new_instance()
        scheduler_class = bundle.scheduler_class or RTOSScheduler
        self.scheduler = scheduler_class(bundle.simulator, context_switch_us=CONTEXT_SWITCH_US)
        self.execution_model = self.config.execution_model
        self._rng = RandomSource(self.config.seed).stream(f"exec:{self.scheme_name}")
        self._code_clock_anchor_us = 0
        self._built = False
        self.name = self.scheme_name
        #: Set by a fault (``repro.faults``) whose hook an idle job or the
        #: quiescence check reaches: every job then runs on the callback
        #: path, never in a quiescent window.
        self.idle_jobs_faulted = False

    # ------------------------------------------------------------------
    # SystemUnderTest interface
    # ------------------------------------------------------------------
    @property
    def interface(self) -> FourVariableInterface:
        return self.bundle.interface

    @property
    def trace(self) -> Trace:
        return self.bundle.recorder.trace

    def apply_stimulus(self, stimulus: Stimulus) -> None:
        action = self.bundle.stimulus_actions.get(stimulus.variable)
        if action is None:
            raise KeyError(
                f"no environment action registered for monitored variable "
                f"{stimulus.variable!r}"
            )
        action(stimulus.at_us)

    def run(self, until_us: int) -> None:
        """Run the platform up to ``until_us``.

        Stretches where the system is quiescent — every input binding idle,
        no message queued, CODE(M) holding no latched input and no enabled
        transition, no job ready or running, and nothing but dormant samples
        and task releases due — are replayed by the scheduler in one loop
        (:meth:`RTOSScheduler.fast_forward`) instead of one generator
        activation at a time; traces, reports, RNG draws and every engine
        counter but ``kernel_window_events`` are those of the callback path.
        The kernel stops before each task-release instant to check.  A fault
        whose hook an idle job or the quiescence check reaches (see
        :meth:`FaultModel.instrument <repro.faults.models.FaultModel.instrument>`),
        a task without an idle shape, a busy period no bound holds, or
        another engine keep the plain callback path; every other fault acts
        only on kernel entries and jobs that end a window anyway.
        """
        if not self._built:
            self.build()
        simulator = self.bundle.simulator
        scheduler = self.scheduler
        if (
            self.idle_jobs_faulted
            or type(simulator) is not Simulator
            or type(scheduler) is not RTOSScheduler
            or scheduler.idle_busy_bound() is None
        ):
            simulator.run_until(until_us)
            return
        tasks = scheduler.tasks
        while True:
            instant = min(task.release_handle.time_us for task in tasks)
            if instant > until_us:
                break
            if instant > simulator.now:
                simulator.run_until(instant - 1)
            if scheduler.idle and self._quiescent():
                limit = until_us + 1
                clock_limit = self._code_clock_horizon()
                if clock_limit is not None and clock_limit < limit:
                    limit = clock_limit
                instant = scheduler.fast_forward(limit)
            simulator.run_until(min(instant, until_us))
        simulator.run_until(until_us)

    def _quiescent(self) -> bool:
        """True when no input, message or CODE(M) step is pending.

        Every input binding would collect nothing, and CODE(M) holds no
        latched input and has no enabled transition at its current clock.
        Schemes with queues add that they are empty.  Input devices need no
        check here: a sampling chain that is not dormant, like a latch in
        flight, is a kernel entry the window cannot pass.
        """
        for binding in self.bundle.input_interfacing.bindings:
            cls = binding.__class__
            if cls is EventInputBinding:
                if binding.device._buffer:
                    return False
            elif cls is LevelInputBinding:
                if binding.device.read() != binding._previous:
                    return False
            else:
                return False
        code = self.code
        return not any(code.inputs.values()) and code.enabled_transition() is None

    def _code_clock_horizon(self) -> Optional[int]:
        """The first instant a CODE(M) invocation could enable a timed transition.

        The smallest ``after``/``at`` bound out of the current state above
        the state clock, converted to platform time through the model-clock
        anchor; None when no such bound exists.  Rows at or below the clock
        are already evaluated (their guards read only chart variables, which
        a quiescent system does not change).
        """
        code = self.code
        ticks = code.state_clock_ticks
        bound = None
        for row in code.model.transitions_from(code.state_index):
            if row.trigger_kind in ("after", "at") and row.trigger_param > ticks:
                if bound is None or row.trigger_param < bound:
                    bound = row.trigger_param
        if bound is None:
            return None
        return self._code_clock_anchor_us + (bound - ticks) * US_PER_MODEL_TICK

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Create the scheme's tasks, start the device drivers and the scheduler."""
        if self._built:
            return
        self._built = True
        self.bundle.hardware.start()
        self._create_tasks()
        self.scheduler.start()

    def _create_tasks(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    # ------------------------------------------------------------------
    # CODE(M) execution (shared by all schemes)
    # ------------------------------------------------------------------
    def _execute_code_cycle(
        self,
        pending_inputs: Sequence[Tuple[str, Any]],
        transitions_limit: Optional[int],
    ) -> Generator[Any, Any, List[OutputWrite]]:
        """One invocation of CODE(M) as a directive-yielding sub-generator.

        Latches the pending i-variable occurrences (recording the i-events),
        advances the model clock by the platform time elapsed since the last
        invocation, then executes up to ``transitions_limit`` transitions
        (None = run to completion, as a full generated step function does),
        charging the execution-time model's CPU cost for each and recording
        transition start/end probes plus o-events as the writes happen.

        Returns the output writes performed so the calling scheme can route
        them (directly to devices in scheme 1, to the actuation queue in
        schemes 2 and 3).
        """
        # Probe gating is hoisted out of the loop: the configuration is
        # immutable for the system's lifetime, so each probe is one direct
        # recorder call (or nothing) per event.
        probes = self.config.probes
        record_io = probes.record_io_events
        record_transitions = probes.record_transitions
        recorder = self.bundle.recorder
        code = self.code
        for variable, value in pending_inputs:
            code.set_input(variable, value)
            if record_io:
                recorder.record_i(variable, value)
        self._advance_code_clock(self.bundle.simulator._clock._now_us)

        writes: List[OutputWrite] = []
        fired = 0
        while transitions_limit is None or fired < transitions_limit:
            row = code.enabled_transition()
            if row is None:
                if fired == 0:
                    yield Compute(self.execution_model.idle_scan_cost(self._rng))
                break
            if record_transitions:
                recorder.record_transition_start(row.name)
            yield Compute(self.execution_model.transition_cost(row, self._rng))
            row_writes = code.fire(row)
            if record_transitions:
                recorder.record_transition_end(row.name)
            for write in row_writes:
                if record_io:
                    recorder.record_o(write.variable, write.value)
                writes.append(write)
            fired += 1
        if transitions_limit is None or fired < transitions_limit:
            # The invocation reached quiescence: discard unconsumed input
            # occurrences like the generated step function does.  When the
            # per-cycle transition limit was hit, latched inputs are kept for
            # the next invocation (the event has not been presented to the
            # chart yet).
            self.code.clear_inputs()
        return writes

    def _advance_code_clock(self, now: int) -> None:
        """Advance CODE(M)'s model clock by the whole ticks elapsed since the last advance."""
        ticks = (now - self._code_clock_anchor_us) // US_PER_MODEL_TICK
        if ticks > 0:
            self.code.advance_clock(ticks)
            self._code_clock_anchor_us += ticks * US_PER_MODEL_TICK

    def _scan_segment(self) -> IdleSegment:
        """Idle-shape segment of an input scan.

        Segments draw through the cost's jitter model, which is what the
        execution model's ``*_cost`` methods the job bodies call do.
        """
        scan = self.execution_model.input_scan
        return (partial(scan.sample, self._rng), scan.worst_case_us, scan.best_case_us, None)

    def _idle_code_segment(self) -> IdleSegment:
        """Idle-shape segment of a CODE(M) invocation that fires nothing.

        The invocation advances the model clock, then charges the idle table
        scan.
        """
        scan = self.execution_model.idle_scan
        return (
            partial(scan.sample, self._rng),
            scan.worst_case_us,
            scan.best_case_us,
            self._advance_code_clock,
        )

    def _collect_inputs(self) -> List[Tuple[str, Any]]:
        """Run the input interfacing code (zero simulated time; callers charge cost)."""
        return self.bundle.input_interfacing.collect()

    def _apply_outputs(self, writes: Sequence[OutputWrite]) -> int:
        """Run the output interfacing code (zero simulated time; callers charge cost)."""
        return self.bundle.output_interfacing.apply_all(writes)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def task_statistics(self) -> Dict[str, Any]:
        """Per-task scheduler statistics, keyed by task name (for reports/tests)."""
        return {task.name: task.stats for task in self.scheduler.tasks}

    def telemetry_snapshot(self) -> Dict[str, int]:
        """Kernel + scheduler lifetime counters in one flat dict.

        The pull surface for :mod:`repro.obs`: the campaign worker calls this
        once after a run and folds the counts into the metrics registry, so
        the simulation itself never touches telemetry.  Engines without the
        counters (the frozen seed kernel) report what they have.
        """
        snapshot: Dict[str, int] = {}
        simulator = self.bundle.simulator
        counters = getattr(simulator, "counters", None)
        if counters is not None:
            snapshot.update(counters())
        else:  # seed engine: processed count only
            snapshot["kernel_events_processed"] = simulator.events_processed
        stats = getattr(self.scheduler, "scheduler_stats", None)
        if stats is not None:
            snapshot.update(stats())
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(scheme={self.scheme_name!r}, built={self._built})"
