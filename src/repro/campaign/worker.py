"""Worker-side execution of campaign runs.

:func:`execute_run` is the unit of work the runner dispatches: a module-level
function of one picklable :class:`RunSpec`, returning one picklable
:class:`RunRecord`.  It never touches shared state except the calling
process's artifact cache, which only memoises immutable generated artifacts —
so executing the same spec in any process, in any order, yields the same
record payload bit for bit.

:func:`execute_shard` wraps a whole shard (a list of specs) in one call so a
campaign crosses the process boundary once per shard rather than once per
run.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from ..core.instrumentation import ProbeConfiguration
from ..core.m_testing import MTestAnalyzer
from ..core.r_testing import execute_r_test
from ..core.serialization import m_report_to_dict, r_report_to_dict
from ..obs import DEFAULT_PHASE_EDGES_S as _PHASE_EDGES, REGISTRY, SpanTracer
from ..obs.spans import SIMULATION_PID
from ..systems import get_pack
from .cache import process_cache
from .results import RunRecord
from .spec import M_TEST_NONE, M_TEST_VIOLATIONS, RunSpec, derive_seed

#: Process-local count of actual run executions.  The store's incremental
#: tests assert on it: resuming a fully stored campaign must leave it
#: untouched (zero *new* executions), which is a stronger statement than
#: "the runner said it reused everything".
_EXECUTED_RUNS = 0


def execution_count() -> int:
    """How many runs :func:`execute_run` has executed in this process."""
    return _EXECUTED_RUNS


class _SegmentCollector:
    """A scheduler observer that streams segments into the simulation lane."""

    def __init__(self, tracer: SpanTracer) -> None:
        self._tracer = tracer
        self._tids: Dict[str, int] = {}

    def _tid(self, task_name: str) -> int:
        tid = self._tids.get(task_name)
        if tid is None:
            tid = self._tids[task_name] = len(self._tids)
            self._tracer.name_thread(SIMULATION_PID, tid, task_name)
        return tid

    def segment(self, task_name: str, start_us: int, end_us: int, preempted: bool) -> None:
        self._tracer.sim_span(
            task_name,
            start_us,
            end_us,
            category="segment",
            tid=self._tid(task_name),
            args={"preempted": True} if preempted else None,
        )

    def deadline_miss(self, task_name: str, at_us: int) -> None:
        self._tracer.sim_instant(
            "deadline miss",
            at_us,
            category="deadline",
            tid=self._tid(task_name),
            args={"task": task_name},
        )


def _untraced(name: str, **_: Any) -> ContextManager[None]:
    return contextlib.nullcontext()


def execute_run(spec: RunSpec, tracer: Optional[SpanTracer] = None) -> RunRecord:
    """Execute one campaign run: R-testing, then the spec's M-testing policy.

    Fault-matrix coordinates are honoured here: a ``mutant`` swaps the
    generated artifacts for the mutated model's (cached per mutant id), and a
    non-empty ``faults`` plan instruments every freshly built system with a
    seed derived from the run's coordinates — both without touching the clean
    path, so a spec with neither remains bit-for-bit the pre-faults run.

    ``tracer`` (``repro profile``) records the phases on its wall-clock lane,
    plus a ``build`` span per built system, and attaches a scheduler observer
    that streams task segments and deadline misses into its simulated-time
    lane.  Neither feeds anything back into the engine, so the record is
    byte-identical with or without it.
    """
    return execute_run_counted(spec, tracer)[0]


def execute_run_counted(
    spec: RunSpec, tracer: Optional[SpanTracer] = None
) -> Tuple[RunRecord, Dict[str, int]]:
    """:func:`execute_run`, also returning the engine's lifetime counters
    summed over the systems the run built."""
    global _EXECUTED_RUNS
    _EXECUTED_RUNS += 1
    phase = tracer.phase if tracer is not None else _untraced
    observer = _SegmentCollector(tracer) if tracer is not None else None
    started = time.perf_counter()
    with phase("codegen", args={"scheme": spec.scheme, "case": spec.case}):
        pack = get_pack(spec.system)
        cache = process_cache()
        if spec.mutant is not None:
            artifacts = cache.artifacts_for_mutant(spec.model, spec.mutant)
        else:
            artifacts = cache.artifacts_for_model(spec.model)
        test_case = spec.test_case()
    codegen_done = time.perf_counter()

    # Runs that skip M-testing only need the R-level (M/C) trace events;
    # recording the i/o/transition probe events costs hot-loop time without
    # affecting the R verdicts (probes never touch M/C events or the RNG), so
    # they are gated off.  M-testing runs keep the full M-level probes.
    probes = ProbeConfiguration.r_level() if spec.m_test == M_TEST_NONE else None

    # The last system the factory built is captured for the post-run counter
    # pull: execute_r_test builds its systems internally, and the kernel /
    # scheduler counters can only be read off the built instance afterwards.
    built = []

    def factory():
        with phase("build"):
            system = pack.build_system(
                spec.scheme,
                model=spec.model,
                seed=spec.sut_seed,
                period_us=spec.period_us,
                interference_scale=spec.interference_scale,
                artifacts=artifacts,
                probes=probes,
            )
            if spec.faults is not None and not spec.faults.empty:
                spec.faults.instrument(
                    system,
                    seed=derive_seed(spec.sut_seed, "faults", spec.faults.name, spec.case),
                )
            if observer is not None:
                system.scheduler.observer = observer
        built.append(system)
        return system

    with phase("execute"):
        r_report = execute_r_test(factory, test_case)
    execute_done = time.perf_counter()

    with phase("analyze"):
        m_payload = None
        if spec.m_test != M_TEST_NONE:
            analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
            if spec.m_test == M_TEST_VIOLATIONS:
                m_report = analyzer.analyze_violations(r_report)
            else:
                m_report = analyzer.analyze(r_report.trace, sut_name=r_report.sut_name)
            m_payload = m_report_to_dict(m_report)
        r_payload = r_report_to_dict(r_report)
    finished = time.perf_counter()

    # Post-run bookkeeping, outside every simulation loop: fold the engine's
    # lifetime counters and the phase timings into the process-local registry.
    # Pull-collection keeps this off the hot path entirely — it is a handful
    # of dict updates per *run*, not per event.
    REGISTRY.counter("runs_executed_total").inc()
    counters: Dict[str, int] = {}
    for system in built:
        for name, value in system.telemetry_snapshot().items():
            counters[name] = counters.get(name, 0) + int(value)
    for name, value in counters.items():
        if value:
            REGISTRY.counter(name + "_total").inc(value)
    phase_seconds = {
        "codegen": codegen_done - started,
        "execute": execute_done - codegen_done,
        "analyze": finished - execute_done,
    }
    for name, seconds in phase_seconds.items():
        REGISTRY.histogram(
            "run_phase_seconds", edges=_PHASE_EDGES, labels={"phase": name}
        ).observe(seconds)

    record = RunRecord(
        spec=spec,
        r_payload=r_payload,
        m_payload=m_payload,
        elapsed_s=finished - started,
        phase_seconds={k: round(v, 6) for k, v in phase_seconds.items()},
    )
    return record, counters


def execute_shard(
    specs: Sequence[RunSpec],
    progress: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Execute one shard of the grid inside a single worker process.

    ``progress`` (serial path only — callables do not cross the process
    boundary) is invoked with each record as it completes, which is how the
    runner keeps its campaign progress without touching the workers.
    """
    if progress is None:
        return [execute_run(spec) for spec in specs]
    records: List[RunRecord] = []
    for spec in specs:
        record = execute_run(spec)
        records.append(record)
        progress(record)
    return records
