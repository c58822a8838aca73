"""Shard determinism and execution semantics of the campaign runner."""

from __future__ import annotations

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CasePoint,
    SchemePoint,
    default_worker_count,
    execute_run,
    execution_count,
    shard_grid,
    table_one_spec,
)


def tiny_spec(m_test: str = "violations") -> CampaignSpec:
    """A fast two-run grid (schemes 1 and 2, two bolus samples each)."""
    return CampaignSpec(
        name="tiny",
        schemes=(SchemePoint(1, sut_seed=11), SchemePoint(2, sut_seed=22)),
        cases=(CasePoint("bolus-request", samples=2, seed=7),),
        m_test=m_test,
    )


class TestShardGrid:
    def test_round_robin_assignment(self):
        runs = tuple(range(7))
        shards = shard_grid(runs, 3)
        assert shards == [(0, 3, 6), (1, 4), (2, 5)]

    def test_never_creates_empty_shards(self):
        shards = shard_grid(tuple(range(2)), 5)
        assert len(shards) == 2
        assert all(shards)

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError):
            shard_grid(tuple(range(3)), 0)


class TestExecuteRun:
    def test_is_deterministic(self):
        run = tiny_spec().expand()[0]
        first, second = execute_run(run), execute_run(run)
        assert first.r_payload == second.r_payload
        assert first.m_payload == second.m_payload

    def test_m_test_none_skips_segmentation(self):
        record = execute_run(tiny_spec(m_test="none").expand()[0])
        assert record.m_payload is None
        assert record.m_report() is None

    def test_m_test_violations_segments_only_violating_samples(self):
        record = execute_run(tiny_spec(m_test="violations").expand()[0])
        violating = {
            sample["index"]
            for sample in record.r_payload["samples"]
            if sample["verdict"] != "pass"
        }
        segmented = {segment["sample_index"] for segment in record.m_payload["segments"]}
        assert segmented == violating

    def test_m_test_all_segments_every_sample(self):
        record = execute_run(tiny_spec(m_test="all").expand()[0])
        assert len(record.m_payload["segments"]) == len(record.r_payload["samples"])

    def test_extended_model_schedule_clears_the_power_on_self_test(self):
        """Stimuli must not land inside the extended model's 500 ms self test,
        which ignores them and would turn into artifact MAX verdicts."""
        spec = CampaignSpec(
            name="ext",
            schemes=(SchemePoint(2, sut_seed=5),),
            cases=(CasePoint("bolus-request", samples=2, seed=1),),
            model="extended",
            m_test="none",
        )
        run = spec.expand()[0]
        assert run.test_case().stimuli[0].at_us > 500_000
        record = execute_run(run)
        assert record.passed  # scheme 2 conforms on the extended model too


class TestRunnerDeterminism:
    @pytest.mark.slow
    def test_parallel_aggregate_is_byte_identical_to_serial(self):
        """The pool leg really ran on 2 workers, so a fallback to the serial
        path cannot pass for a parallel run."""
        spec = tiny_spec()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert serial.to_json() == parallel.to_json()
        assert parallel.workers == 2

    def test_records_come_back_in_grid_order(self):
        result = CampaignRunner(tiny_spec(), workers=1).run()
        assert [record.spec.index for record in result.records] == [0, 1]

    def test_rejects_negative_worker_count(self):
        with pytest.raises(ValueError):
            CampaignRunner(tiny_spec(), workers=-1)

    def test_workers_zero_auto_detects_schedulable_cpus(self):
        runner = CampaignRunner(tiny_spec(), workers=0)
        assert runner.workers == default_worker_count()

    def test_default_worker_count_uses_affinity_not_cpu_count(self):
        count = default_worker_count()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            # The schedulable count is what a CPU-limited container exposes;
            # cpu_count would report the host's physical CPUs instead.
            assert count == len(os.sched_getaffinity(0))
            assert count <= (os.cpu_count() or count)

    def test_workers_reports_actual_parallelism_not_request(self):
        single_run = CampaignSpec(
            name="one",
            schemes=(SchemePoint(2, sut_seed=22),),
            cases=(CasePoint("bolus-request", samples=1, seed=7),),
            m_test="none",
        )
        # One run short-circuits to the serial path regardless of the request.
        assert CampaignRunner(single_run, workers=8).run().workers == 1


class _SecondShardBreaksPool:
    """An in-process stand-in for ``ProcessPoolExecutor`` whose second
    submitted shard dies with the pool, like a killed worker's."""

    def __init__(self, max_workers):
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        if self.submitted == 2:
            future.set_exception(BrokenProcessPool("a worker was killed"))
        else:
            future.set_result(fn(*args))
        return future


class TestBrokenPool:
    def test_only_the_unfinished_shards_re_run(self, monkeypatch):
        spec = table_one_spec(samples=2)
        serial = CampaignRunner(spec, workers=1).run()
        monkeypatch.setattr("repro.campaign.runner.ProcessPoolExecutor", _SecondShardBreaksPool)

        before = execution_count()
        runner = CampaignRunner(spec, workers=2)
        result = runner.run()
        assert execution_count() - before == 3
        assert runner.fell_back_to_serial
        assert runner.fallback_reason == "a worker was killed"
        assert result.workers == 1
        assert result.to_json() == serial.to_json()
        snapshot = runner.progress.snapshot()
        assert snapshot["completed"] == snapshot["total_runs"] == 3
        assert snapshot["finished"] is True


class TestResultAccessors:
    def test_summary_and_csv_cover_every_run(self):
        result = CampaignRunner(tiny_spec(m_test="none")).run()
        assert len(result) == 2
        assert result.wall_seconds > 0
        rows = result.summary_rows()
        assert len(rows) == 2
        csv_text = result.to_csv()
        assert csv_text.count("\n") == 3  # header + 2 rows
        assert "scheme1/bolus-request" in result.render_summary()

    def test_reports_reconstruct_from_payloads(self):
        result = CampaignRunner(tiny_spec(m_test="all")).run()
        record = result.records[0]
        assert record.spec.scheme == 1
        r_report = record.r_report()
        assert len(r_report.samples) == 2
        assert r_report.test_case.requirement.requirement_id == "REQ1"
        m_report = record.m_report()
        assert len(m_report.segments) == 2
