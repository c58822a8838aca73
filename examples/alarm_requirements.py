#!/usr/bin/env python3
"""Alarm scenarios: timing-testing the empty-reservoir and alarm-clear requirements.

The GPCA safety requirements cover more than the bolus start.  This example
exercises three further timing requirements on implementation scheme 2:

* REQ2 — the buzzer must sound within 250 ms of the reservoir emptying;
* REQ3 — the pump motor must stop within 250 ms of the reservoir emptying;
* REQ4 — the buzzer must be silenced within 300 ms of the caregiver clearing
  the alarm.

Each scenario requires the pump to be driven into the right state first
(request a bolus, let the reservoir empty mid-infusion); the scenario
programs the GPCA pack registers in ``repro.gpca.scenarios`` declare that
setup.

Run with:  python examples/alarm_requirements.py
"""

from __future__ import annotations

from functools import partial

from repro.core import MTestAnalyzer, assess_sufficiency, render_r_report
from repro.core.r_testing import execute_r_test
from repro.systems import GPCA_PACK


def main() -> None:
    interface = GPCA_PACK.build_interface()
    scenarios = [
        GPCA_PACK.schedule(GPCA_PACK.case_builders[name](5), 0, "fig2")
        for name in ("empty-reservoir-alarm", "empty-reservoir-stop", "alarm-clear")
    ]

    factory = partial(GPCA_PACK.build_system, 2, seed=5)
    for test_case in scenarios:
        report = execute_r_test(factory, test_case)
        print(render_r_report(report))
        sufficiency = assess_sufficiency(report)
        print(
            f"  sample sufficiency: {sufficiency.samples} samples, "
            f"violation-rate interval [{sufficiency.interval_low:.2f}, "
            f"{sufficiency.interval_high:.2f}] at {sufficiency.confidence:.0%} confidence"
        )
        if not report.passed:
            analyzer = MTestAnalyzer(interface, test_case.requirement)
            m_report = analyzer.analyze_violations(report)
            print("  " + m_report.summary())
        print()


if __name__ == "__main__":
    main()
