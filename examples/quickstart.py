#!/usr/bin/env python3
"""Quickstart: the complete layered timing-testing workflow in one script.

Walks the whole model-based implementation flow of the paper:

1. build the infusion-pump statechart (Fig. 2) and verify REQ1 on the model;
2. generate CODE(M) from it;
3. integrate the code with the simulated platform using implementation
   scheme 1 (the single-threaded 25 ms loop);
4. R-test the implemented system against REQ1 (m/c events only);
5. because R-testing fails, M-test the violating samples and print the
   delay-segment diagnosis.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from functools import partial

from repro.codegen import generate_code
from repro.core import MTestAnalyzer, render_layered_summary, render_m_report, render_r_report
from repro.core.r_testing import execute_r_test
from repro.gpca import build_fig2_statechart, req1_bolus_start
from repro.model.verification import BoundedResponseChecker
from repro.systems import GPCA_PACK


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Model and model-level verification (Fig. 1-(1))
    # ------------------------------------------------------------------
    chart = build_fig2_statechart()
    requirement = req1_bolus_start()
    verification = BoundedResponseChecker(chart).check(requirement.to_model_requirement())
    print("== Model-level verification ==")
    print(verification.summary())
    print()

    # ------------------------------------------------------------------
    # 2. Code generation (Fig. 1-(2))
    # ------------------------------------------------------------------
    artifacts = generate_code(chart)
    print("== Code generation ==")
    print(artifacts.summary())
    print("first lines of the generated C translation unit:")
    for line in artifacts.c_source.splitlines()[:6]:
        print("   ", line)
    print()

    # ------------------------------------------------------------------
    # 3-4. Platform integration + R-testing (Fig. 1-(3))
    # ------------------------------------------------------------------
    # The pack builds the system under test and writes the stimulus
    # schedule of its named scenario; execute_r_test runs one against the other.
    program = GPCA_PACK.case_builders["bolus-request"](10)
    test_case = GPCA_PACK.schedule(program, 7, "fig2")
    r_report = execute_r_test(partial(GPCA_PACK.build_system, 1, seed=11), test_case)
    print("== R-testing (m/c events only) ==")
    print(render_r_report(r_report))
    print()

    # ------------------------------------------------------------------
    # 5. M-testing of the violating samples
    # ------------------------------------------------------------------
    m_report = None
    if not r_report.passed:
        analyzer = MTestAnalyzer(GPCA_PACK.build_interface(), requirement)
        m_report = analyzer.analyze_violations(r_report)
        print("== M-testing (delay segments of the violating samples) ==")
        print(render_m_report(m_report))
        print()

    print("== Layered summary ==")
    print(render_layered_summary(r_report, m_report))


if __name__ == "__main__":
    main()
