"""``repro.obs`` — the zero-perturbation observability layer.

The framework equivalent of the paper's layered measurement probes
(:mod:`repro.core.instrumentation`): observe the stack — kernel, scheduler,
campaign, store, server — without perturbing it.  Three pieces:

* :mod:`repro.obs.metrics` — process-local counters and histograms with
  fixed deterministic bucket edges, rendered as JSON or Prometheus text on
  ``repro serve``'s ``/metrics``.  Hot loops are never instrumented
  directly: the kernel and scheduler keep plain integer counters that the
  campaign worker pulls into :data:`REGISTRY` once per run.
* :mod:`repro.obs.spans` — a span tracer emitting Chrome-trace/Perfetto
  JSON timelines (``repro profile``), with a framework wall-clock lane and a
  simulation virtual-time lane.  Span collection is opt-in per run
  (``execute_run(spec, tracer)``); without a tracer no span is recorded.
* :mod:`repro.obs.progress` — live campaign progress with ETA, kept by every
  campaign runner, persisted when a store is attached and served on
  ``/progress/<campaign>``.
"""

from .metrics import (
    DEFAULT_PHASE_EDGES_S,
    MetricsRegistry,
    REGISTRY,
)
from .progress import CampaignProgress
from .spans import SpanTracer, render_self_time_table

__all__ = [
    "CampaignProgress",
    "DEFAULT_PHASE_EDGES_S",
    "MetricsRegistry",
    "REGISTRY",
    "SpanTracer",
    "render_self_time_table",
]
