"""The paper's contribution: four-variable instrumentation and R/M testing.

* :mod:`repro.core.four_variables` — m/i/o/c events, traces and the recorder;
* :mod:`repro.core.requirements` and :mod:`repro.core.test_generation` —
  timing requirements and R-test cases;
* :mod:`repro.core.r_testing` — R-testing (``execute_r_test``);
* :mod:`repro.core.m_testing` — M-testing (``MTestAnalyzer``);
* :mod:`repro.core.report`, :mod:`repro.core.serialization`,
  :mod:`repro.core.coverage` — reports, JSON/CSV and transition coverage.

Import names from those modules: this ``__init__`` loads none of them, so
a pack that states its requirements does not load the trace machinery.
"""
