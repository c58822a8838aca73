"""Incremental campaigns: resume skips stored work without changing results."""

from __future__ import annotations

import time

import pytest

from repro.campaign import CampaignRunner, execution_count, table_one_spec
from repro.campaign.worker import execute_run
from repro.faults import FaultMatrixSpec, default_fault_suite, generate_mutants
from repro.gpca.model import build_fig2_statechart
from repro.store import RunStore, run_key


def test_cold_run_with_store_persists_everything(tmp_path, table1_spec):
    store = RunStore(tmp_path / "runs.db")
    runner = CampaignRunner(table1_spec, store=store)
    result = runner.run()
    assert runner.executed_count == len(result) == 3
    assert runner.reused_count == 0
    assert runner.campaign_id is not None
    assert store.counts() == {"runs": 3, "campaigns": 1}
    store.close()


def test_full_resume_executes_zero_runs_and_is_byte_identical(seeded_store, table1_spec, table1_result):
    """The subsystem's acceptance criterion, asserted via the execution counter."""
    executed_before = execution_count()
    runner = CampaignRunner(table1_spec, store=seeded_store, resume=True)
    resumed = runner.run()
    assert execution_count() == executed_before, "resume executed a stored run"
    assert runner.executed_count == 0
    assert runner.reused_count == 3
    assert resumed.to_json() == table1_result.to_json()


def test_warm_resume_is_at_least_ten_times_faster_than_a_cold_run(tmp_path):
    """A stored campaign is reassembled, not re-executed (table1 grid, samples 4)."""
    spec = table_one_spec(samples=4)
    store = RunStore(tmp_path / "runs.db")
    started = time.perf_counter()
    cold = CampaignRunner(spec, store=store).run()
    cold_s = time.perf_counter() - started
    runner = CampaignRunner(spec, store=store, resume=True)
    started = time.perf_counter()
    warm = runner.run()
    warm_s = time.perf_counter() - started
    store.close()
    assert runner.executed_count == 0
    assert warm.to_json() == cold.to_json()
    assert cold_s >= 10 * warm_s, f"cold run {cold_s:.3f} s, warm resume {warm_s:.4f} s"


def test_partial_resume_executes_only_the_missing_runs(seeded_store, table1_spec, table1_result):
    missing_key = run_key(table1_result.records[1].spec)
    assert seeded_store.delete_run(missing_key)

    executed_before = execution_count()
    runner = CampaignRunner(table1_spec, store=seeded_store, resume=True)
    resumed = runner.run()
    assert execution_count() == executed_before + 1
    assert runner.executed_count == 1
    assert runner.reused_count == 2
    assert resumed.to_json() == table1_result.to_json()
    # The fresh record was written back: a second resume is fully warm.
    assert seeded_store.has(table1_result.records[1].spec)


def test_resume_without_reuse_still_recomputes(tmp_path, table1_spec, table1_result):
    """store= without resume= persists but never reads back."""
    store = RunStore(tmp_path / "runs.db")
    store.save_campaign(table1_result)
    runner = CampaignRunner(table1_spec, store=store)
    result = runner.run()
    assert runner.executed_count == 3
    assert result.to_json() == table1_result.to_json()
    store.close()


def test_resume_requires_store():
    with pytest.raises(ValueError, match="needs a store"):
        CampaignRunner(table_one_spec(samples=2), resume=True)


def test_store_grows_incrementally_across_grids(tmp_path):
    """A wider grid reuses the runs a narrower one already stored."""
    store = RunStore(tmp_path / "runs.db")
    narrow = table_one_spec(samples=2)
    CampaignRunner(narrow, store=store).run()

    # Same coordinates plus nothing new: the identical grid is fully warm even
    # though this runner never executed it.
    runner = CampaignRunner(table_one_spec(samples=2), store=store, resume=True)
    runner.run()
    assert runner.executed_count == 0

    # A different sample count is a different coordinate: everything re-runs.
    wider = table_one_spec(samples=3)
    wide_runner = CampaignRunner(wider, store=store, resume=True)
    wide_runner.run()
    assert wide_runner.executed_count == 3
    assert store.counts()["runs"] == 6
    store.close()


def test_kill_matrix_campaign_resumes_through_store(tmp_path):
    """FaultMatrixSpec (duck-typed spec, fault/mutant coordinates) round-trips."""
    spec = FaultMatrixSpec(
        fault_plans=default_fault_suite()[:1],
        mutants=generate_mutants(build_fig2_statechart())[:1],
        cases=("bolus-request",),
        samples=2,
    )
    store = RunStore(tmp_path / "matrix.db")
    cold_runner = CampaignRunner(spec, store=store)
    cold = cold_runner.run()

    warm_runner = CampaignRunner(spec, store=store, resume=True)
    warm = warm_runner.run()
    assert warm_runner.executed_count == 0
    assert warm.to_json() == cold.to_json()
    assert store.load_campaign(cold_runner.campaign_id).to_json() == cold.to_json()
    store.close()


def test_mutated_record_round_trips_through_sqlite(tmp_path):
    """A stored mutant run rebuilds a spec whose payload matches bit for bit."""
    spec = FaultMatrixSpec(
        fault_plans=default_fault_suite()[:1],
        mutants=generate_mutants(build_fig2_statechart())[:1],
        cases=("bolus-request",),
        samples=2,
    ).expand()[-1]
    assert spec.mutant is not None
    record = execute_run(spec)
    store = RunStore(tmp_path / "runs.db")
    [key] = store.put_records([record])
    rebuilt = store.get(key, index=spec.index)
    assert rebuilt.to_dict() == record.to_dict()
    store.close()
