"""repro — layered timing testing for model-based implementations.

A reproduction of *"A Layered Approach for Testing Timing in the Model-Based
Implementation"* (Kim, Hwang, Park, Son, Lee — DATE 2014).

The package is organised by layer, mirroring the paper's methodology:

* :mod:`repro.model` — timed statechart modelling, simulation and verification
  (the Simulink/Stateflow + Design Verifier substitute);
* :mod:`repro.codegen` — generation of CODE(M) from a statechart (the
  RealTime Workshop substitute), with an execution-time model;
* :mod:`repro.platform` — the simulated target platform: DES kernel,
  FreeRTOS-like scheduler and generic sensor/actuator drivers;
* :mod:`repro.integration` — the three implementation schemes that integrate
  CODE(M) with the platform;
* :mod:`repro.core` — the paper's contribution: the four-variable interface,
  R-testing and M-testing;
* :mod:`repro.gpca` — the infusion-pump case study;
* :mod:`repro.systems` — the system-pack registry: the GPCA pump, a
  rate-adaptive cardiac pacemaker and an automotive cruise/AEB controller as
  pluggable case studies (``repro systems`` on the command line);
* :mod:`repro.baselines` — black-box online testing and functional-conformance
  baselines from the related work;
* :mod:`repro.analysis` — statistics, Table I rendering and figure data;
* :mod:`repro.campaign` — the parallel test-campaign engine: declarative
  cartesian grids of schemes × scenarios × configurations, sharded across
  worker processes with content-keyed artifact caching and bit-reproducible
  aggregation (``repro campaign`` on the command line);
* :mod:`repro.scenarios` — the scenario DSL and the seeded, coverage-guided
  scenario generator (``repro explore`` on the command line);
* :mod:`repro.faults` — platform fault injection and model mutation analysis
  (``repro faults`` on the command line);
* :mod:`repro.store` — the persistent, content-addressed result store:
  incremental (resumable) campaigns, snapshot regression diffs and the
  ``repro serve`` JSON query API.

``import repro`` loads none of these subpackages: import the one you use,
as the quickstarts below do.  ``docs/architecture.md`` draws the layer
diagram, states the order in which the subpackages may import each other,
and collects the design notes behind the campaign engine, the trace index
and the scenario subsystem.

Quickstart (build the system under test, write its schedule, run it)::

    from functools import partial

    from repro.core import MTestAnalyzer
    from repro.core.r_testing import execute_r_test
    from repro.systems import GPCA_PACK

    program = GPCA_PACK.case_builders["bolus-request"](10)
    test_case = GPCA_PACK.schedule(program, 0, "fig2")
    report = execute_r_test(partial(GPCA_PACK.build_system, 1), test_case)
    print(report.summary())
    if not report.passed:
        analyzer = MTestAnalyzer(GPCA_PACK.build_interface(), test_case.requirement)
        print(analyzer.analyze_violations(report).summary())

Campaign quickstart (the Table I grid, sharded across four workers)::

    from repro.campaign import CampaignRunner, table_one_spec

    result = CampaignRunner(table_one_spec(), workers=4).run()
    print(result.table_one().render())
"""

__version__ = "1.14.0"

__all__ = [
    "__version__",
]
