"""Persistent result store, incremental campaigns and the serving layer.

PR 1–4 built execution power — the parallel campaign runner, the trace query
engine, coverage-guided scenario generation, fault/mutation kill matrices —
but every result was ephemeral.  This package gives the repo *memory*:

* :mod:`repro.store.keys` — deterministic, content-addressed run coordinates
  (model fingerprint + full configuration + seeds, **not** grid position);
* :mod:`repro.store.store` — :class:`RunStore`, the SQLite-backed store of
  run records and campaign snapshots (stdlib-only, thread-safe);
* :mod:`repro.store.diff` — :class:`SnapshotDiff`, regression analysis
  between any two stored campaigns (verdict flips, new violations,
  latency/segment-delay drift);
* :mod:`repro.store.server` — :class:`StoreServer`, the ``repro serve``
  ThreadingHTTPServer JSON API with ETag caching.

Because run keys are content-addressed and campaign aggregation is already
byte-reproducible, a store-backed :class:`repro.campaign.CampaignRunner`
with ``resume=True`` executes only the grid points the store has never seen
and reassembles a ``CampaignResult`` whose ``to_json()`` is byte-identical
to a cold execution — re-running a fully stored campaign performs **zero**
run executions (``tests/store/test_resume.py`` requires it to be at least
10x faster than the cold run).
"""

from .diff import DRIFT_THRESHOLD_US, SnapshotDiff, diff_snapshots
from .keys import run_coordinate, run_key
from .server import ENDPOINTS, StoreServer
from .store import RunStore, StoreError

__all__ = [
    "DRIFT_THRESHOLD_US",
    "ENDPOINTS",
    "RunStore",
    "SnapshotDiff",
    "StoreError",
    "StoreServer",
    "diff_snapshots",
    "run_coordinate",
    "run_key",
]
