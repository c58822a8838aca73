#!/usr/bin/env python3
"""Campaign sweep: a scheme × polling-period grid in one parallel campaign.

Builds a custom :class:`CampaignSpec` that crosses the single-threaded scheme
at several polling periods with the multi-threaded scheme as a control, runs
the whole grid through the campaign engine (sharded across worker processes
when more than one CPU is available), and prints the per-run summary plus the
violation-rate sweep along the period axis.

The same grid is reproducible bit-for-bit at any worker count — try changing
``WORKERS`` and diffing the JSON.

Run with:  python examples/campaign_sweep.py
"""

from __future__ import annotations

from repro.analysis.figures import render_sweep
from repro.campaign.runner import CampaignRunner, default_worker_count
from repro.campaign.spec import CampaignSpec, CasePoint, SchemePoint
from repro.platform.kernel.time import ms

#: Polling periods to sweep on the single-threaded scheme (paper value: 25 ms).
PERIODS_MS = (10, 25, 50)
# Schedulable CPUs (cgroup-aware), not os.cpu_count(): a 1-CPU container
# should run serially instead of over-sharding.
WORKERS = min(4, default_worker_count())


def build_spec() -> CampaignSpec:
    scheme_points = tuple(
        SchemePoint(1, period_us=ms(period_ms)) for period_ms in PERIODS_MS
    ) + (SchemePoint(2),)  # scheme 2 as the conforming control
    return CampaignSpec(
        name="example-period-sweep",
        schemes=scheme_points,
        cases=(CasePoint("bolus-request", samples=5),),
        base_seed=42,
        m_test="violations",
    )


def main() -> None:
    spec = build_spec()
    print(f"running {spec.size} campaign runs on {WORKERS} worker(s) ...")
    runner = CampaignRunner(spec, workers=WORKERS)
    result = runner.run()

    print()
    print(result.render_summary())
    print(f"wall clock: {result.wall_seconds:.2f} s")

    print()
    print(render_sweep(result.sweep_points("period_ms"), "period (ms)"))

    # Violating runs carried M-testing; show where the time went.
    for record in result.records:
        m_report = record.m_report()
        if m_report is not None and m_report.segments:
            print(f"\n{record.spec.label}: {m_report.summary()}")


if __name__ == "__main__":
    main()
