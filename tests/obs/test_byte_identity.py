"""Zero perturbation, pinned: no store / store / spans are byte-identical.

The observability layer's hard constraint is that none of it — metrics
pulls, progress tracking and persistence, span collection with the scheduler
observer attached — changes a verdict, a trace, an RNG draw or a store
coordinate.  These tests pin that across all three registered system packs.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignResult, CampaignRunner, profile_run
from repro.campaign.spec import CampaignSpec, CasePoint, SchemePoint, table_one_spec
from repro.campaign.worker import execute_run
from repro.obs import REGISTRY
from repro.store import RunStore

#: One representative coordinate per registered system pack.
PACK_CASES = [
    ("gpca", "bolus-request"),
    ("pacemaker", "sense-inhibit"),
    ("cruise", "aeb-stop"),
]


def pack_spec(system: str, case: str) -> CampaignSpec:
    return CampaignSpec(
        name=f"obs-{system}",
        schemes=(SchemePoint(2), SchemePoint(3)),
        cases=(CasePoint(case, samples=2, system=system),),
    )


class TestRunLevelIdentity:
    @pytest.mark.parametrize(("system", "case"), PACK_CASES)
    def test_profiled_record_matches_plain_execution(self, system, case):
        """profile_run (spans + scheduler observer) vs execute_run, byte for byte."""
        for spec in pack_spec(system, case).expand():
            plain = execute_run(spec)
            profiled = profile_run(spec)
            assert json.dumps(profiled.record.to_dict(), sort_keys=True) == json.dumps(
                plain.to_dict(), sort_keys=True
            ), f"{system}/{spec.label}: span collection perturbed the run"

    @pytest.mark.parametrize(("system", "case"), PACK_CASES)
    def test_profiler_observed_the_simulation(self, system, case):
        """The identical record came *with* telemetry: segments + counters."""
        spec = pack_spec(system, case).expand()[0]
        profiled = profile_run(spec)
        events = profiled.tracer.to_chrome_trace()["traceEvents"]
        segments = [e for e in events if e.get("cat") == "segment"]
        assert segments, f"{system}: no task segments collected"
        assert profiled.counters["kernel_events_processed"] > 0
        assert profiled.counters["scheduler_dispatch_rounds"] > 0


class TestCampaignLevelIdentity:
    def test_runner_aggregate_identical_off_on_and_with_spans(self, table1_result, tmp_path):
        """The canonical campaign payload is identical without a store, with
        one (progress persisted as runs land) and with spans on every run."""
        spec = table_one_spec(samples=2)
        baseline = table1_result.to_json()

        with RunStore(tmp_path / "runs.db") as store:
            stored = CampaignRunner(spec, store=store).run()
            assert store.load_progress(spec.name)["finished"] is True
        assert stored.to_json() == baseline

        with_spans = CampaignResult(
            spec=spec, records=[profile_run(run).record for run in spec.expand()]
        )
        assert with_spans.to_json() == baseline

    def test_enabled_runner_collected_campaign_counters(self):
        def counts():
            return (
                REGISTRY.counter_value("campaign_runs_completed"),
                REGISTRY.counter_value("campaign_runs_cached"),
                REGISTRY.histogram("campaign_wall_seconds").count,
            )

        before = counts()
        runner = CampaignRunner(table_one_spec(samples=2))
        runner.run()
        # 3 runs completed, none cached, one wall-clock observation.
        assert [after - start for after, start in zip(counts(), before)] == [3, 0, 1]
        assert runner.progress.snapshot()["finished"] is True
