"""Ablation A2: interference load versus REQ1 violations on scheme 3.

Scales the CPU bursts of scheme 3's interfering threads from zero (equivalent
to scheme 2) to 1.2x the default profile — one campaign grid of scheme-3
points (:func:`repro.campaign.spec.interference_sweep_spec`) — and regenerates the
REQ1 R-testing verdicts at every point.  The sweep shows the mechanism behind
the paper's scheme-3 results: violations (and eventually MAX samples) appear
as the higher-priority interference approaches CPU saturation.
"""

from __future__ import annotations

from repro.analysis.figures import render_sweep
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import interference_sweep_spec

SCALES = (0.0, 0.4, 0.8, 1.0, 1.2)
SAMPLES = 6


def run_sweep():
    spec = interference_sweep_spec(scales=SCALES, samples=SAMPLES)
    return CampaignRunner(spec).run().sweep_points("interference_scale")


def test_interference_sweep(benchmark, write_artifact):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    write_artifact("ablation_interference.txt", render_sweep(points, "interference scale"))

    by_scale = {point.parameter: point for point in points}
    # Without interference the scheme-2 pipeline conforms.
    assert by_scale[0.0].violation_rate == 0.0
    # At the default profile the requirement is violated for most samples.
    assert by_scale[1.0].violation_rate >= 0.5
    # Latency grows monotonically from no interference to full interference.
    assert by_scale[1.0].mean_latency_ms > by_scale[0.4].mean_latency_ms > by_scale[0.0].mean_latency_ms
    # Past saturation, time-outs (MAX samples) appear.
    assert by_scale[1.2].timeout_count >= by_scale[0.0].timeout_count
