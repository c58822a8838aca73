"""The GPCA infusion-pump case study: models, requirements, hardware, scenarios.

* :mod:`repro.gpca.model` — the Fig. 2 and extended statecharts;
* :mod:`repro.gpca.requirements` — REQ1/REQ2 and the requirement suite;
* :mod:`repro.gpca.scenarios` — the four named scenarios and the scenario space;
* :mod:`repro.gpca.interface` — the pump's four-variable interface;
* :mod:`repro.gpca.hardware` — the ARM7 execution-time profile and the
  reservoir dynamics.

:mod:`repro.systems.gpca` turns them into the default system pack.  Import
names from those modules: this ``__init__`` loads none of them.
"""
