"""Live campaign progress: run counts, rates and an ETA.

:class:`CampaignProgress` is the runner-side accumulator behind the
``/progress/<campaign>`` endpoint: the runner feeds it run outcomes
(completed / cached) as shards finish, and it renders a compact
snapshot dict that the store persists and the server exposes.

Time comes from an injected monotonic source (``time.perf_counter`` by
default, a fake clock in tests) — progress never reads wall-clock-of-day and
never touches the simulation's clock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

__all__ = ["CampaignProgress"]


class CampaignProgress:
    """Thread-safe progress accumulator for one campaign run."""

    def __init__(
        self,
        name: str,
        total_runs: int,
        *,
        monotonic: Optional[Callable[[], float]] = None,
        workers: int = 1,
    ) -> None:
        if monotonic is None:
            from time import perf_counter as monotonic  # type: ignore[no-redef]
        self._monotonic = monotonic
        self._lock = threading.Lock()
        self.name = name
        self.total_runs = total_runs
        self.workers = workers
        self.started = 0
        self.completed = 0
        self.cached = 0
        self._started_at = monotonic()
        self._finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_started(self, count: int = 1) -> None:
        with self._lock:
            self.started += count

    def record_cached(self, count: int = 1) -> None:
        """Runs satisfied from the store during resume — never executed."""
        with self._lock:
            self.cached += count

    def record_completed(self, count: int = 1) -> None:
        with self._lock:
            self.completed += count

    def finish(self) -> None:
        with self._lock:
            if self._finished_at is None:
                self._finished_at = self._monotonic()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def done(self) -> int:
        return self.completed + self.cached

    @property
    def remaining(self) -> int:
        return max(0, self.total_runs - self.done)

    def elapsed_s(self) -> float:
        end = self._finished_at
        if end is None:
            end = self._monotonic()
        return end - self._started_at

    def rate_runs_per_s(self) -> float:
        """Execution rate over runs actually executed (cached excluded)."""
        elapsed = self.elapsed_s()
        if elapsed <= 0.0:
            return 0.0
        return self.completed / elapsed

    def eta_s(self) -> Optional[float]:
        """Seconds until done at the current rate; None before any signal."""
        if self.remaining == 0:
            return 0.0
        rate = self.rate_runs_per_s()
        if rate <= 0.0:
            return None
        return self.remaining / rate

    def snapshot(self) -> Dict[str, Any]:
        """The persisted/served progress view (JSON-shaped)."""
        with self._lock:
            finished = self._finished_at is not None
            snapshot: Dict[str, Any] = {
                "campaign": self.name,
                "total_runs": self.total_runs,
                "workers": self.workers,
                "started": self.started,
                "completed": self.completed,
                "cached": self.cached,
                # A run that raises aborts the campaign, so none is
                # counted as failed yet (ROADMAP item C).
                "failed": 0,
                "remaining": self.remaining,
                "finished": finished,
                "elapsed_s": round(self.elapsed_s(), 6),
                "rate_runs_per_s": round(self.rate_runs_per_s(), 6),
            }
        eta = self.eta_s()
        snapshot["eta_s"] = None if eta is None else round(eta, 6)
        return snapshot
