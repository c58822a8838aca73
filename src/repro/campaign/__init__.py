"""Parallel test-campaign engine for R-/M-testing at scale.

The paper's evaluation — many R-test cases across three implementation
schemes and several period/interference configurations — is an
embarrassingly-parallel grid.  This package runs such grids as *campaigns*:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the declarative
  cartesian grid (scheme points × scenario points) that expands to picklable
  :class:`RunSpec` units with deterministically derived seeds;
* :mod:`repro.campaign.cache` — :class:`ArtifactCache`, content-keyed caching
  so statechart build + code generation run once per distinct model per
  process instead of once per configuration;
* :mod:`repro.campaign.worker` — :func:`execute_run`, the pure run function
  dispatched to workers;
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, which shards the
  grid across a ``ProcessPoolExecutor`` (with a deterministic single-process
  fallback);
* :mod:`repro.campaign.results` — :class:`CampaignResult`, the grid-ordered
  aggregate that feeds :mod:`repro.analysis` (Table I, sweep series) and the
  ``repro campaign`` CLI.

Campaign aggregates are byte-identical for any worker count: every run is a
pure function of its spec, seeds derive from grid coordinates rather than
execution order, and records are re-sorted by grid index before aggregation.

Scenario points either name a stock GPCA scenario or carry a
:class:`repro.scenarios.dsl.ScenarioProgram` directly (the ``scenarios`` preset
grid); see ``docs/architecture.md`` for the engine's design notes.

Import names from those modules (the CLI's campaign commands, for example,
``from repro.campaign.runner import CampaignRunner``): this ``__init__``
loads none of them, so reading a spec or a stored result never loads the
worker and the build chain it imports.
"""
