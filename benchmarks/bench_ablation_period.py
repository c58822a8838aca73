"""Ablation A1: how the single-threaded scheme's polling period drives violations.

The paper's scheme 1 polls sensors and steps CODE(M) every 25 ms.  This sweep
varies that period — one campaign grid of scheme-1 points
(:func:`repro.campaign.spec.period_sweep_spec`) — and regenerates the REQ1
R-testing verdicts for each value, showing the crossover from conforming
(short periods) to violating (long periods) behaviour — the design-space view
behind the paper's choice to report scheme 1 at 25 ms.
"""

from __future__ import annotations

from repro.analysis.figures import render_sweep
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import period_sweep_spec

PERIODS_MS = (10, 15, 20, 25, 35, 50)
SAMPLES = 6


def run_sweep():
    spec = period_sweep_spec(periods_ms=PERIODS_MS, samples=SAMPLES)
    return CampaignRunner(spec).run().sweep_points("period_ms")


def test_period_sweep(benchmark, write_artifact):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    write_artifact("ablation_period.txt", render_sweep(points, "period (ms)"))

    by_period = {point.parameter: point for point in points}
    # Short polling periods conform comfortably.
    assert by_period[10.0].violation_rate == 0.0
    # Long polling periods violate REQ1 for most samples.
    assert by_period[50.0].violation_rate >= 0.5
    # The violation rate is (weakly) monotone across the extremes.
    assert by_period[50.0].violation_rate >= by_period[10.0].violation_rate
    # Mean latency grows with the polling period.
    assert by_period[50.0].mean_latency_ms > by_period[10.0].mean_latency_ms
