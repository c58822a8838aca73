"""The campaign runner: shards the grid across worker processes.

``CampaignRunner(spec, workers=N)`` expands the spec's grid, splits it into
``N`` round-robin shards and executes them on a ``ProcessPoolExecutor``.
With ``workers <= 1`` (or when process pools are unavailable, e.g. in a
restricted sandbox) the same shard function runs in-process — the
*deterministic single-process fallback*.  Because every run is a pure
function of its spec and records are re-ordered by grid index before
aggregation, the resulting :class:`CampaignResult` canonical payload is
byte-identical for any worker count.

Round-robin sharding (``runs[i::N]``) balances the load when the grid is
sorted by configuration: expensive points (e.g. interfered-scheme runs) end
up spread across shards instead of stacked on one worker.

Progress rides alongside, never inside: the runner keeps a
:class:`repro.obs.CampaignProgress` accumulator up to date as runs and shards
complete, persists throttled snapshots into the attached store (serving
``/progress/<campaign>``), and folds campaign counters into the process
:data:`repro.obs.REGISTRY` — all outside the workers, so none of it can
change a record.

A process pool that breaks mid-campaign (a killed worker, no fork support)
costs only the shards that had not finished: they re-run in-process, and
every shard that already returned keeps its records.

The worker (and with it the build chain a run needs) and the process pool
are imported only once the runner knows runs are missing: a campaign that
does not resume imports the worker before its wall clock starts, a resume
right after its store lookups — in both cases before the pool forks and
before the first run's clock starts.  A fully stored campaign loads neither.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..obs import REGISTRY, CampaignProgress
from .results import CampaignResult

if TYPE_CHECKING:
    from .results import RunRecord
    from .spec import CampaignSpec, RunSpec

#: Minimum seconds between store progress snapshots (final write always lands).
PROGRESS_WRITE_INTERVAL_S = 0.5


def default_worker_count() -> int:
    """The number of CPUs this process may actually be scheduled on.

    Uses ``len(os.sched_getaffinity(0))`` — the *schedulable* CPU count —
    rather than ``os.cpu_count()``, which reports the host's physical count
    even inside a 1-CPU container cgroup.  Auto-detected worker counts based
    on ``cpu_count`` over-shard on such containers and misreport parallel
    speedup.  Falls back to ``cpu_count`` on platforms without CPU affinity.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def shard_grid(runs: Sequence[RunSpec], shards: int) -> List[Tuple[RunSpec, ...]]:
    """Split the expanded grid into round-robin shards (no empty shards)."""
    if shards <= 0:
        raise ValueError("shard count must be positive")
    shards = min(shards, len(runs)) or 1
    return [tuple(runs[offset::shards]) for offset in range(shards)]


class CampaignRunner:
    """Executes a campaign spec, serially or across a process pool.

    With a :class:`repro.store.RunStore` attached the runner becomes
    *incremental*: every fresh record is persisted, and with ``resume=True``
    it consults the store first and dispatches only the grid points whose
    coordinates have no stored result.  Reused and fresh records reassemble
    in grid order, so a resumed campaign's canonical aggregate is
    byte-identical to a cold one's — the store can never change a verdict,
    only skip recomputing it.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        workers: int = 1,
        store=None,
        resume: bool = False,
    ) -> None:
        """``workers=0`` means auto-detect: one worker per schedulable CPU.

        ``store`` is a :class:`repro.store.RunStore` (duck-typed: anything
        with ``lookup`` / ``save_campaign`` / ``save_progress``); ``resume``
        additionally reuses stored records instead of re-executing them.
        With a store attached, live progress snapshots are persisted for
        ``/progress/<campaign>``; the records are byte-identical either way.
        """
        if workers < 0:
            raise ValueError("worker count cannot be negative")
        if resume and store is None:
            raise ValueError("resume=True needs a store to resume from")
        self.spec = spec
        self.workers = workers if workers > 0 else default_worker_count()
        self.store = store
        self.resume = resume
        #: Live progress of the current/last :meth:`run`.
        self.progress: Optional[CampaignProgress] = None
        #: Set after :meth:`run` when a pool failure forced the serial path.
        self.fell_back_to_serial = False
        #: The error message of the pool failure, when one occurred.
        self.fallback_reason: Optional[str] = None
        #: Grid points actually dispatched on the last :meth:`run`.
        self.executed_count = 0
        #: Grid points satisfied from the store on the last :meth:`run`.
        self.reused_count = 0
        #: Campaign snapshot id recorded on the last store-backed :meth:`run`.
        self.campaign_id: Optional[str] = None
        self._last_progress_write = 0.0

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute every (missing) run of the grid and aggregate in grid order."""
        runs = self.spec.expand()
        if not self.resume:
            from . import worker  # noqa: F401 - loaded before the wall clock starts
        started = time.perf_counter()
        progress = self.progress = CampaignProgress(
            self.spec.name, len(runs), workers=self.workers
        )
        self._last_progress_write = 0.0
        reused: List[RunRecord] = []
        missing: Sequence[RunSpec] = runs
        if self.resume:
            missing = []
            for spec in runs:
                record = self.store.lookup(spec)
                if record is None:
                    missing.append(spec)
                else:
                    reused.append(record)
            if reused:
                progress.record_cached(len(reused))
                self._persist_progress()
        fresh: List[RunRecord] = []
        workers_used = 1
        if missing:
            from .worker import execute_shard

            progress.record_started(len(missing))
            if self.workers <= 1 or len(missing) <= 1:
                fresh = execute_shard(missing, progress=self._on_run_complete)
            else:
                fresh = self._run_sharded(missing)
                workers_used = 1 if self.fell_back_to_serial else min(self.workers, len(missing))
        self.executed_count = len(fresh)
        self.reused_count = len(reused)
        result = CampaignResult(
            spec=self.spec,
            records=[*reused, *fresh],
            workers=workers_used,
            wall_seconds=time.perf_counter() - started,
        )
        if self.store is not None:
            # save_campaign persists every record (fresh ones included) plus
            # the snapshot in one pass — no separate put_records needed.
            self.campaign_id = self.store.save_campaign(result)
        progress.finish()
        self._persist_progress(force=True)
        REGISTRY.counter("campaign_runs_completed").inc(len(fresh))
        REGISTRY.counter("campaign_runs_cached").inc(len(reused))
        REGISTRY.histogram("campaign_wall_seconds").observe(result.wall_seconds)
        return result

    # ------------------------------------------------------------------
    def _on_run_complete(self, record: RunRecord) -> None:
        """Serial-path progress hook: one record finished in-process."""
        self._record_completed(1)

    def _record_completed(self, count: int) -> None:
        self.progress.record_completed(count)
        self._persist_progress()

    def _persist_progress(self, force: bool = False) -> None:
        """Write a progress snapshot to the store, throttled to one every
        :data:`PROGRESS_WRITE_INTERVAL_S` (progress is advisory; hammering
        SQLite once per run of a 10k-run campaign is not)."""
        if self.store is None:
            return
        now = time.perf_counter()
        if not force and now - self._last_progress_write < PROGRESS_WRITE_INTERVAL_S:
            return
        self._last_progress_write = now
        self.store.save_progress(self.progress.snapshot())

    # ------------------------------------------------------------------
    def _run_sharded(self, runs: Sequence[RunSpec]) -> List[RunRecord]:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        from .worker import execute_shard

        shards = shard_grid(runs, self.workers)
        # Per-shard futures instead of executor.map: progress is recorded as
        # each shard lands.  Results reassemble in shard order, and
        # CampaignResult re-sorts by grid index anyway, so completion order
        # can never leak into the aggregate.
        results: List[Optional[List[RunRecord]]] = [None] * len(shards)
        failure: Optional[BaseException] = None
        try:
            with ProcessPoolExecutor(max_workers=len(shards)) as executor:
                futures = {
                    executor.submit(execute_shard, shard): position
                    for position, shard in enumerate(shards)
                }
                for future in as_completed(futures):
                    try:
                        records = future.result()
                    except BrokenProcessPool as error:
                        failure = error
                        continue
                    results[futures[future]] = records
                    self._record_completed(len(records))
        except (OSError, BrokenProcessPool) as error:  # no pool to submit to
            failure = error
        if failure is not None:
            # Records are pure functions of their specs: every shard that
            # returned before the pool broke stands, and only the shards with
            # no result re-run, in-process.
            self.fell_back_to_serial = True
            self.fallback_reason = str(failure)
            for position, shard in enumerate(shards):
                if results[position] is None:
                    results[position] = execute_shard(shard, progress=self._on_run_complete)
        return [record for shard_records in results for record in shard_records]
