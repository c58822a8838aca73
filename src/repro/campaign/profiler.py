"""``repro profile``: run one grid coordinate and emit a span timeline.

:func:`profile_run` is :func:`repro.campaign.worker.execute_run` with a span
tracer, so the run itself is the campaign run of the same spec, byte for
byte.  The tracer puts the worker phases (codegen → build → execute →
analyze) on the wall-clock lane, and a scheduler observer streams compute
segments and deadline misses into the simulated-time lane.  The resulting
Chrome-trace JSON opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..obs import SpanTracer, render_self_time_table
from .results import RunRecord
from .spec import RunSpec
from .worker import execute_run_counted

__all__ = ["ProfileResult", "profile_run"]


@dataclass
class ProfileResult:
    """Everything ``repro profile`` reports for one coordinate."""

    record: RunRecord
    tracer: SpanTracer
    #: Kernel + scheduler lifetime counters pulled off the profiled system.
    counters: Dict[str, int]

    def timeline(self) -> Dict[str, Any]:
        return self.tracer.to_chrome_trace()

    def write_timeline(self, path) -> None:
        self.tracer.write_timeline(path)

    def self_time_table(self) -> str:
        return render_self_time_table(self.tracer.self_times())


def profile_run(
    spec: RunSpec, *, monotonic: Optional[Callable[[], float]] = None
) -> ProfileResult:
    """Execute one run with span collection; the record stays byte-identical
    (pinned by the obs byte-identity tests)."""
    tracer = SpanTracer(monotonic)
    record, counters = execute_run_counted(spec, tracer)
    return ProfileResult(record=record, tracer=tracer, counters=counters)
