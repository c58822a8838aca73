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
byte-reproducible, a store-backed :class:`repro.campaign.runner.CampaignRunner`
with ``resume=True`` executes only the grid points the store has never seen
and reassembles a ``CampaignResult`` whose ``to_json()`` is byte-identical
to a cold execution — re-running a fully stored campaign performs **zero**
run executions (``tests/store/test_resume.py`` requires it to be at least
10x faster than the cold run).

Import names from those modules.  :class:`~repro.store.store.RunStore` and
:class:`~repro.store.server.StoreServer` are re-exported here because the
benchmark under ``ledger/`` imports them through the package; the server is
resolved on first access, so the ``repro store`` commands and a resumed
campaign never load :mod:`http.server`.
"""

from .store import RunStore

__all__ = [
    "RunStore",
    "StoreServer",
]


def __getattr__(name: str):
    if name == "StoreServer":
        from .server import StoreServer

        return StoreServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
