"""Platform integration: the three implementation schemes of the case study.

:mod:`repro.integration.single_threaded` (scheme 1),
:mod:`repro.integration.multi_threaded` (scheme 2) and
:mod:`repro.integration.interference` (scheme 3) build on
:mod:`repro.integration.base`.  This ``__init__`` loads none of them.
"""
