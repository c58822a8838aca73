#!/usr/bin/env python3
"""Scheme comparison: regenerate the paper's Table I.

Runs the bolus-request scenario of REQ1 (ten samples) against all three
implementation schemes, performs R-testing and M-testing on each, and prints
the resulting Table I together with the per-scheme diagnosis.

Run with:  python examples/scheme_comparison.py
"""

from __future__ import annotations

from functools import partial

from repro.analysis import SchemeResult, TableOne
from repro.core import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.systems import GPCA_PACK, generic_scheme_name
from repro.systems.base import ALL_SCHEMES


def main() -> None:
    test_case = GPCA_PACK.schedule(GPCA_PACK.case_builders["bolus-request"](10), 7, "fig2")
    interface = GPCA_PACK.build_interface()
    table = TableOne()

    for scheme in ALL_SCHEMES:
        print(f"running {generic_scheme_name(scheme)} ...")
        factory = partial(GPCA_PACK.build_system, scheme, seed=scheme * 11)
        r_report = execute_r_test(factory, test_case)
        m_report = MTestAnalyzer(interface, test_case.requirement).analyze(
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
