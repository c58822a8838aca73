#!/usr/bin/env python3
"""Scheme comparison: regenerate the paper's Table I.

Runs the bolus-request scenario of REQ1 (ten samples) against all three
implementation schemes, performs R-testing and M-testing on each, and prints
the resulting Table I together with the per-scheme diagnosis.

Run with:  python examples/scheme_comparison.py
"""

from __future__ import annotations

from repro.analysis import SchemeResult, TableOne
from repro.core import MTestAnalyzer, RTestRunner
from repro.gpca import (
    ALL_SCHEMES,
    bolus_request_test_case,
    build_pump_interface,
    req1_bolus_start,
    scheme_factory,
)
from repro.systems import generic_scheme_name


def main() -> None:
    requirement = req1_bolus_start()
    test_case = bolus_request_test_case(samples=10, seed=7)
    interface = build_pump_interface()
    table = TableOne()

    for scheme in ALL_SCHEMES:
        print(f"running {generic_scheme_name(scheme)} ...")
        r_report = RTestRunner(scheme_factory(scheme, seed=scheme * 11)).run(test_case)
        m_report = MTestAnalyzer(interface, requirement).analyze(
            r_report.trace, sut_name=r_report.sut_name
        )
        table.add(SchemeResult(scheme, generic_scheme_name(scheme), r_report, m_report))

    print()
    print(table.render())
    print()
    print("Per-scheme summary rows:")
    for row in table.summary_rows():
        print("  ", row)


if __name__ == "__main__":
    main()
