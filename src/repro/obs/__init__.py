"""``repro.obs`` — the zero-perturbation observability layer.

The framework equivalent of the paper's layered measurement probes
(:mod:`repro.core.instrumentation`): observe the stack — kernel, scheduler,
campaign, store, server — without perturbing it.  Three pieces:

* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms with
  fixed deterministic bucket edges, rendered as JSON or Prometheus text on
  ``repro serve``'s ``/metrics``.
* :mod:`repro.obs.spans` — a span tracer emitting Chrome-trace/Perfetto
  JSON timelines (``repro profile``), with a framework wall-clock lane and a
  simulation virtual-time lane.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade and the
  :data:`NULL_TELEMETRY` null sink; disabled telemetry costs near-nothing
  because hot loops are never instrumented directly — their counters are
  pulled after the fact.
* :mod:`repro.obs.progress` — live campaign progress with ETA, persisted by
  the runner and served on ``/progress/<campaign>``.
"""

from .metrics import (
    DEFAULT_PHASE_EDGES_S,
    MetricsRegistry,
    REGISTRY,
)
from .progress import CampaignProgress
from .spans import SpanTracer, render_self_time_table
from .telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "CampaignProgress",
    "DEFAULT_PHASE_EDGES_S",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "REGISTRY",
    "SpanTracer",
    "Telemetry",
    "render_self_time_table",
]
