"""The campaign-progress accumulator behind ``/progress/<campaign>``."""

from __future__ import annotations

import pytest

from repro.obs import CampaignProgress


class TestCampaignProgress:
    def test_counts_and_remaining(self, fake_clock):
        progress = CampaignProgress("table1", 10, monotonic=fake_clock, workers=2)
        progress.record_cached(3)
        progress.record_started(7)
        progress.record_completed(4)
        assert progress.done == 7
        assert progress.remaining == 3

    def test_rate_excludes_cached_runs(self, fake_clock):
        progress = CampaignProgress("grid", 10, monotonic=fake_clock)
        progress.record_cached(5)
        progress.record_completed(4)
        fake_clock.advance(2.0)
        assert progress.rate_runs_per_s() == pytest.approx(2.0)

    def test_eta_from_the_execution_rate(self, fake_clock):
        progress = CampaignProgress("grid", 10, monotonic=fake_clock)
        progress.record_completed(4)
        fake_clock.advance(2.0)
        # 6 remaining at 2 runs/s.
        assert progress.eta_s() == pytest.approx(3.0)

    def test_eta_is_none_before_any_signal(self, fake_clock):
        progress = CampaignProgress("grid", 10, monotonic=fake_clock)
        fake_clock.advance(1.0)
        assert progress.eta_s() is None

    def test_eta_is_zero_when_done(self, fake_clock):
        progress = CampaignProgress("grid", 2, monotonic=fake_clock)
        progress.record_completed(2)
        fake_clock.advance(1.0)
        assert progress.eta_s() == 0.0

    def test_finish_freezes_elapsed_time(self, fake_clock):
        progress = CampaignProgress("grid", 1, monotonic=fake_clock)
        progress.record_completed()
        fake_clock.advance(2.0)
        progress.finish()
        fake_clock.advance(100.0)
        assert progress.elapsed_s() == pytest.approx(2.0)

    def test_snapshot_is_json_shaped_and_complete(self, fake_clock):
        progress = CampaignProgress("table1", 4, monotonic=fake_clock, workers=3)
        progress.record_started(4)
        progress.record_completed(2)
        fake_clock.advance(1.0)
        snapshot = progress.snapshot()
        assert snapshot == {
            "campaign": "table1",
            "total_runs": 4,
            "workers": 3,
            "started": 4,
            "completed": 2,
            "cached": 0,
            "failed": 0,
            "remaining": 2,
            "finished": False,
            "elapsed_s": 1.0,
            "rate_runs_per_s": 2.0,
            "eta_s": 1.0,
        }
