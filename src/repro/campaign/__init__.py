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
:class:`repro.scenarios.ScenarioProgram` directly (the ``scenarios`` preset
grid); see ``docs/architecture.md`` for the engine's design notes.
"""

from .cache import ArtifactCache, chart_fingerprint, model_fingerprint, process_cache
from .profiler import profile_run
from .results import SUMMARY_FIELDS, CampaignResult
from .runner import CampaignRunner, default_worker_count, shard_grid
from .spec import (
    PRESETS,
    CampaignSpec,
    CasePoint,
    RunSpec,
    SchemePoint,
    build_case,
    derive_seed,
    full_grid_spec,
    interference_sweep_spec,
    period_sweep_spec,
    preset_spec,
    scenario_grid_spec,
    table_one_spec,
)
from .worker import execute_run, execution_count

__all__ = [
    "ArtifactCache",
    "SUMMARY_FIELDS",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CasePoint",
    "PRESETS",
    "RunSpec",
    "SchemePoint",
    "build_case",
    "chart_fingerprint",
    "default_worker_count",
    "derive_seed",
    "execute_run",
    "execution_count",
    "model_fingerprint",
    "full_grid_spec",
    "interference_sweep_spec",
    "period_sweep_spec",
    "preset_spec",
    "process_cache",
    "profile_run",
    "scenario_grid_spec",
    "shard_grid",
    "table_one_spec",
]
